// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around calls into the program's public functions (the
// program itself carries no benchmark instrumentation), kept in memory, and
// written as one JSON file when the process ends. Each span holds its name,
// parent, start and end on the monotonic clock, and the process CPU time at
// both ends.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

// Marks the calling thread as the main thread. Spans opened on a thread
// with no open span of its own (a thread-pool worker) take the innermost
// span open on the main thread as their parent.
void MarkMainThread();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
  bool main_thread_;
};

// Adds `delta` to the named counter (thread-safe).
void Count(const std::string& name, double delta);

// Writes the command line, exit code, spans and counters as JSON to `path`.
// False on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<std::string>& argv,
                int exit_code);

}  // namespace perfbench
