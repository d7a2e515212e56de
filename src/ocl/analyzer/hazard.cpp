#include "ocl/analyzer/hazard.h"

#include <cstdlib>
#include <sstream>
#include <utility>

namespace binopt::ocl::analyzer {

std::string to_string(HazardKind kind) {
  switch (kind) {
    case HazardKind::kLocalRaceReadWrite: return "local-race-read-write";
    case HazardKind::kLocalRaceWriteWrite: return "local-race-write-write";
    case HazardKind::kLocalOutOfBounds: return "local-out-of-bounds";
    case HazardKind::kLocalUninitRead: return "local-uninitialized-read";
    case HazardKind::kGlobalOutOfBounds: return "global-out-of-bounds";
    case HazardKind::kGlobalUninitRead: return "global-uninitialized-read";
    case HazardKind::kStaticIndexOutOfBounds:
      return "static-index-out-of-bounds";
    case HazardKind::kStaticDivergentBarrier:
      return "static-divergent-barrier";
    case HazardKind::kStaticRaceReadWrite: return "static-race-read-write";
    case HazardKind::kStaticRaceWriteWrite: return "static-race-write-write";
    case HazardKind::kStaticUninitRead: return "static-uninitialized-read";
    case HazardKind::kStaticUnprovableSite: return "static-unprovable-site";
  }
  return "unknown";
}

std::string to_string(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string Hazard::to_string() const {
  std::ostringstream os;
  os << "[" << analyzer::to_string(severity) << "] "
     << analyzer::to_string(kind) << " in kernel '" << kernel << "': "
     << message;
  if (occurrences > 1) os << " (x" << occurrences << ")";
  return os.str();
}

AnalyzerConfig AnalyzerConfig::from_env() {
  AnalyzerConfig config;
  if (const char* env = std::getenv("BINOPT_OCL_ANALYZE")) {
    config.enabled = env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  }
  return config;
}

void HazardReport::add(Hazard hazard) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  for (Hazard& existing : hazards_) {
    if (existing.kind == hazard.kind && existing.kernel == hazard.kernel &&
        existing.resource == hazard.resource) {
      ++existing.occurrences;
      return;
    }
  }
  if (hazards_.size() >= max_reports_) {
    ++dropped_;
    return;
  }
  hazards_.push_back(std::move(hazard));
}

bool HazardReport::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ == 0;
}

std::size_t HazardReport::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hazards_.size() + dropped_;
}

std::size_t HazardReport::total_occurrences() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::vector<Hazard> HazardReport::hazards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hazards_;
}

std::size_t HazardReport::error_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = dropped_;
  for (const Hazard& h : hazards_) {
    if (h.severity == Severity::kError) ++n;
  }
  return n;
}

std::size_t HazardReport::count(HazardKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Hazard& h : hazards_) {
    if (h.kind == kind) ++n;
  }
  return n;
}

void HazardReport::set_max_reports(std::size_t max_reports) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_reports_ = max_reports;
}

void HazardReport::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  hazards_.clear();
  dropped_ = 0;
  total_ = 0;
}

std::string HazardReport::to_string() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (total_ == 0) return "no hazards detected\n";
  std::ostringstream os;
  os << hazards_.size() + dropped_ << " distinct hazard site(s), " << total_
     << " occurrence(s):\n";
  for (const Hazard& h : hazards_) {
    os << "  - " << h.to_string() << "\n";
  }
  if (dropped_ > 0) {
    os << "  (" << dropped_ << " further distinct site(s) dropped past the "
       << max_reports_ << "-report cap)\n";
  }
  return os.str();
}

}  // namespace binopt::ocl::analyzer
