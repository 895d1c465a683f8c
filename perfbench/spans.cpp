#include "spans.h"

#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

struct Record {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = -1.0;
  double cpu_start = 0.0;
  double cpu_end = 0.0;
};

std::mutex g_mu;
std::vector<Record> g_spans;                   // guarded by g_mu
std::map<std::string, double> g_counters;      // guarded by g_mu
std::thread::id g_main_thread;                 // set once, before any span
std::atomic<int> g_main_top{-1};               // innermost main-thread span
thread_local std::vector<int> t_open;

// CLOCK_MONOTONIC, the clock Python's time.monotonic() reads, so spans of
// different processes and run.py's own timestamps share one axis.
double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void MarkMainThread() { g_main_thread = std::this_thread::get_id(); }

Span::Span(const char* name)
    : main_thread_(std::this_thread::get_id() == g_main_thread) {
  const int parent = !t_open.empty() ? t_open.back()
                                     : (main_thread_ ? -1 : g_main_top.load());
  Record r;
  r.name = name;
  r.parent = parent;
  r.cpu_start = ProcessCpuSeconds();
  r.start = WallSeconds();
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    id_ = static_cast<int>(g_spans.size());
    g_spans.push_back(std::move(r));
  }
  t_open.push_back(id_);
  if (main_thread_) g_main_top.store(id_);
}

Span::~Span() {
  const double end = WallSeconds();
  const double cpu_end = ProcessCpuSeconds();
  t_open.pop_back();
  if (main_thread_) g_main_top.store(t_open.empty() ? -1 : t_open.back());
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<std::size_t>(id_)].end = end;
  g_spans[static_cast<std::size_t>(id_)].cpu_end = cpu_end;
}

void Count(const std::string& name, double delta) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_counters[name] += delta;
}

bool WriteSpans(const std::string& path, const std::vector<std::string>& argv,
                int exit_code) {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"pid\": %d, \"exit\": %d, \"argv\": [",
               static_cast<int>(::getpid()), exit_code);
  for (std::size_t i = 0; i < argv.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", Escape(argv[i]).c_str());
  }
  std::fprintf(f, "],\n \"spans\": [");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Record& r = g_spans[i];
    std::fprintf(f, "%s\n  [%zu, %d, \"%s\", %.9f, %.9f, %.9f, %.9f]",
                 i ? "," : "", i, r.parent, Escape(r.name).c_str(), r.start,
                 r.end, r.cpu_start, r.cpu_end);
  }
  std::fprintf(f, "],\n \"counters\": {");
  bool first = true;
  for (const auto& [name, value] : g_counters) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",",
                 Escape(name).c_str(), value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
