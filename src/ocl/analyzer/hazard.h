// Kernel hazard diagnostics — the analyzer's report vocabulary.
//
// The runtime simulator already interposes on every global/local access and
// every barrier; when analysis is enabled (AnalyzerConfig / the
// BINOPT_OCL_ANALYZE env var) those interposition points feed structured
// diagnostics into a HazardReport instead of silently executing the access.
// The same sink also collects the findings of the static IR lint
// (analyzer/ir_lint.*), so `binopt_cli --check` prints one report covering
// both the executed kernels and their dataflow IRs.
//
// Hazards are deduplicated by (kind, kernel, resource): the first
// occurrence keeps its full work-item/offset attribution and later
// occurrences only bump a counter — a missing barrier inside kernel IV.B's
// backward loop would otherwise report once per tree level per option.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace binopt::ocl::analyzer {

/// Everything the analyzer can flag. Dynamic kinds come from the
/// shadow-memory instrumentation in the executor; static kinds from the
/// IR lint pass.
enum class HazardKind {
  kLocalRaceReadWrite,    ///< read & write, same byte, no barrier between
  kLocalRaceWriteWrite,   ///< two writes, same byte, no barrier between
  kLocalOutOfBounds,      ///< local access outside the declared array
  kLocalUninitRead,       ///< local read of a never-written byte
  kGlobalOutOfBounds,     ///< global access outside the buffer
  kGlobalUninitRead,      ///< global read of a byte no one ever wrote
  kStaticIndexOutOfBounds,   ///< IR lint: index bound exceeds buffer size
  kStaticDivergentBarrier,   ///< IR lint: barrier in divergent control flow
  kStaticRaceReadWrite,    ///< verifier: read/write collision, one interval
  kStaticRaceWriteWrite,   ///< verifier: write/write collision, one interval
  kStaticUninitRead,       ///< verifier: read precedes every covering write
  kStaticUnprovableSite,   ///< lint/verifier: site carries no provable bound
};

[[nodiscard]] std::string to_string(HazardKind kind);

/// Diagnostic severity. Errors fail `binopt_cli --check`; warnings are
/// printed but do not affect the exit status (the "downgradable" tier for
/// unprovable sites on IRs that intentionally lack symbolic annotations).
enum class Severity { kError, kWarning };

[[nodiscard]] std::string to_string(Severity severity);

/// One side of a conflicting access pair (dynamic hazards only).
struct AccessSiteInfo {
  std::size_t work_item = kNone;  ///< local id within the group
  std::size_t epoch = 0;          ///< barrier epoch the access happened in
  bool is_write = false;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

/// One structured diagnostic. `first` is the earlier recorded access,
/// `second` the access that tripped the check; single-access hazards
/// (OOB, uninit read) leave `first` empty.
struct Hazard {
  HazardKind kind = HazardKind::kLocalRaceReadWrite;
  std::string kernel;       ///< kernel name (or IR name for static kinds)
  std::string resource;     ///< buffer name, or "local[<alloc index>]"
  std::size_t group_id = 0;
  std::size_t byte_offset = 0;  ///< offset within the resource
  std::size_t bytes = 0;        ///< access width
  AccessSiteInfo first;
  AccessSiteInfo second;
  Severity severity = Severity::kError;
  std::string message;          ///< fully formatted, human-readable
  std::size_t occurrences = 1;  ///< dedup counter (same kind+kernel+resource)

  [[nodiscard]] std::string to_string() const;
};

/// Analyzer knobs. Off by default: a disabled analyzer costs one null
/// pointer test per memory access and changes no observable behaviour.
struct AnalyzerConfig {
  bool enabled = false;
  /// Distinct (kind, kernel, resource) entries kept before the report
  /// starts dropping new sites (occurrence counters keep counting).
  std::size_t max_reports = 64;

  /// Reads BINOPT_OCL_ANALYZE: unset/"0" -> disabled, anything else ->
  /// enabled. The devices consult this once at construction.
  [[nodiscard]] static AnalyzerConfig from_env();
};

/// Thread-safe diagnostic sink. Compute-unit workers report concurrently
/// while a range executes; hazards are rare enough that one mutex is fine.
class HazardReport {
public:
  explicit HazardReport(std::size_t max_reports = 64)
      : max_reports_(max_reports) {}

  /// Records a hazard, deduplicating by (kind, kernel, resource).
  void add(Hazard hazard);

  [[nodiscard]] bool empty() const;
  /// Distinct hazard sites recorded (after dedup).
  [[nodiscard]] std::size_t size() const;
  /// Total occurrences across all sites, including deduplicated ones.
  [[nodiscard]] std::size_t total_occurrences() const;
  [[nodiscard]] std::vector<Hazard> hazards() const;
  /// Distinct sites of one kind (test convenience).
  [[nodiscard]] std::size_t count(HazardKind kind) const;
  /// Distinct error-severity sites (what `--check` gates on). Sites dropped
  /// past the cap count as errors — the cap must never hide a failure.
  [[nodiscard]] std::size_t error_count() const;

  void clear();

  /// Re-caps the report (used when a device's analyzer is reconfigured).
  void set_max_reports(std::size_t max_reports);

  /// The full report, one block per distinct hazard.
  [[nodiscard]] std::string to_string() const;

private:
  mutable std::mutex mutex_;
  std::vector<Hazard> hazards_ BINOPT_GUARDED_BY(mutex_);
  /// sites past max_reports_ (still counted)
  std::size_t dropped_ BINOPT_GUARDED_BY(mutex_) = 0;
  std::size_t total_ BINOPT_GUARDED_BY(mutex_) = 0;
  std::size_t max_reports_ BINOPT_GUARDED_BY(mutex_);
};

}  // namespace binopt::ocl::analyzer
