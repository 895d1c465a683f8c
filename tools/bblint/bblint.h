// bblint - project-specific static analysis for Background Buster.
//
// A deliberately small two-phase analyzer (no libclang):
//
// Phase 1 - line rules. Heuristics over comment- and string-stripped source
// lines, tuned to the invariants this codebase actually depends on:
//
//   no-nondeterminism          - reconstruction must be replayable; all
//                                randomness flows through src/synth/rng.h and
//                                nothing in the pipeline reads wall clocks.
//   no-raw-pixel-indexing      - pixel access goes through the bounds-checked
//                                ImageT accessors, not y*width+x arithmetic.
//   no-unshared-float-accum    - no `f += ...` on a by-reference captured
//                                float inside a ParallelFor/ParallelShards
//                                body; reductions use per-shard accumulators
//                                so results stay bit-identical.
//   no-float-truncation        - int casts of floating multiply/divide go
//                                through std::lround (or an explicit
//                                floor/ceil/trunc), never silent truncation.
//   header-hygiene             - headers have #pragma once, no
//                                `using namespace`, no <iostream>.
//   no-full-call-materialization - the reconstruction core is streaming:
//                                src/core/ may borrow frames through
//                                `const VideoStream&` or pull them via
//                                video::FrameSource, but never own or grow a
//                                VideoStream (that is O(call) memory again).
//   no-per-pixel-loop          - per-pixel hot loops live in the kernel
//                                catalog (src/imaging/kernels/), exactly
//                                once; loops over .pixels() spans anywhere
//                                else in src/ must either move into a kernel
//                                or carry a documented allow() reason.
//   no-silent-error-drop       - Status/Result returns are [[nodiscard]] at
//                                the type level; this rule catches the bare
//                                statement calls to the curated must-check
//                                error-returning functions (LoadBbv,
//                                SavePartial, Configure, ...) that a
//                                legacy pattern could still drop silently.
//
// Phase 2 - project rules. LintTree() builds a whole-tree model (include
// graph, module tiers, declared Status/Result-returning functions, the
// trace-counter / stage / fault-point registry manifest) and runs the
// cross-TU rule families that no per-line scan can see (see project.h):
//
//   layering                   - module includes must follow the layer DAG
//                                common -> imaging/kernels -> imaging ->
//                                {video, segmentation, synth, vbg, detect,
//                                datasets} -> core ->
//                                {cli, apps, tools, bench, tests}; back-edges
//                                and include cycles are rejected with the
//                                offending include chain printed.
//   no-unchecked-result        - call sites discarding any declared
//                                bb::Status / Result<T> return, even shapes
//                                [[nodiscard]] misses; a (void) cast needs
//                                an allow() tag with a reason string.
//   registry-consistency       - every trace counter / stage / BB_FAULTS
//                                point is declared exactly once in
//                                tools/bblint/registry.manifest and
//                                referenced with consistent spelling.
//   header-self-containment    - every header compiles standalone; build-
//                                driven (CMake target bb_header_selfcheck,
//                                ctest lint.HeaderSelfContainment), listed
//                                here so --list-rules shows the whole
//                                catalog.
//
// False positives are silenced per line with
//     // bblint: allow(<rule>[, <rule>...])
// either at the end of the offending line or on a comment-only line
// immediately above it. `allow(all)` silences every rule for that line.
// Rules that demand documented suppressions additionally require a reason:
//     // bblint: allow(<rule>) -- <why this is safe>
#pragma once

#include <string>
#include <vector>

namespace bb::lint {

// Rule identifiers (the strings used in findings and allow() comments).
inline constexpr const char* kRuleNondeterminism = "no-nondeterminism";
inline constexpr const char* kRuleRawPixelIndexing = "no-raw-pixel-indexing";
inline constexpr const char* kRuleFloatAccumulation =
    "no-unshared-float-accumulation";
inline constexpr const char* kRuleFloatTruncation = "no-float-truncation";
inline constexpr const char* kRuleHeaderHygiene = "header-hygiene";
inline constexpr const char* kRuleFullCallMaterialization =
    "no-full-call-materialization";
inline constexpr const char* kRuleSilentErrorDrop = "no-silent-error-drop";
inline constexpr const char* kRulePerPixelLoop = "no-per-pixel-loop";
inline constexpr const char* kRuleLayering = "layering";
inline constexpr const char* kRuleUncheckedResult = "no-unchecked-result";
inline constexpr const char* kRuleRegistryConsistency =
    "registry-consistency";
inline constexpr const char* kRuleHeaderSelfContainment =
    "header-self-containment";

struct Finding {
  std::string file;     // repo-relative path, forward slashes
  int line = 0;         // 1-based
  std::string rule;     // one of the kRule* identifiers
  std::string message;  // human-readable explanation

  bool operator==(const Finding&) const = default;
};

// Which pass of the analyzer owns a rule.
enum class RulePhase {
  kLine,     // phase 1: per-file, comment/string-stripped line heuristics
  kProject,  // phase 2: whole-tree model (include graph, registries)
  kBuild,    // enforced by a generated CMake check target, not by bblint
};

struct RuleInfo {
  const char* name;
  RulePhase phase;
  const char* doc;        // one-line description
  const char* path_gate;  // "" when the rule applies everywhere
};

// The full rule catalog (line + project + build rules), in a stable order.
const std::vector<RuleInfo>& RuleCatalog();

// Names of every registered rule, in catalog order.
std::vector<std::string> RuleNames();

struct Options {
  // When non-empty, run only the named rule (phase 1 or phase 2).
  std::string only_rule;
};

// Lints `content` as if it were the file at repo-relative `path` (the path
// drives per-file exemptions and the header/source distinction). Phase 1
// only - project rules need the whole tree. Findings are ordered by line.
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const Options& options = {});

// Reads `abs_path` from disk and lints it under the repo-relative name
// `rel_path`. Unreadable files yield a single pseudo-finding so CI never
// silently skips a file.
std::vector<Finding> LintFile(const std::string& rel_path,
                              const std::string& abs_path,
                              const Options& options = {});

// Walks src/, apps/, bench/, tools/, and tests/ under `root`, linting every
// .h/.cpp file (phase 1), then builds the project model and runs the phase-2
// cross-TU rules. Directories named build*, hidden directories, and
// bblint_fixtures/ (known-bad test inputs) are skipped. The walk order - and
// therefore the output - is deterministic: paths are sorted, findings are
// ordered by (file, line).
std::vector<Finding> LintTree(const std::string& root,
                              const Options& options = {});

}  // namespace bb::lint
