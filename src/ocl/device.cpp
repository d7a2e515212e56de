#include "ocl/device.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/error.h"

namespace binopt::ocl {
namespace {

/// Quotes a context string as a JSON literal for TraceEvent args.
std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Device::Device(std::string name, DeviceKind kind, DeviceLimits limits)
    : name_(std::move(name)),
      kind_(kind),
      limits_(limits),
      analyzer_config_(analyzer::AnalyzerConfig::from_env()),
      hazard_report_(analyzer_config_.max_reports) {
  BINOPT_REQUIRE(limits_.global_mem_bytes > 0, "device '", name_,
                 "' must have global memory");
  BINOPT_REQUIRE(limits_.local_mem_bytes > 0, "device '", name_,
                 "' must have local memory");
  BINOPT_REQUIRE(limits_.max_workgroup_size > 0, "device '", name_,
                 "' must allow work-groups");
  rebuild_scheduler(resolve_compute_units(limits_.compute_units));
  if (trace::Tracer* env = trace::env_tracer()) set_tracer(env);
  if (const faults::FaultPlan* plan = faults::env_fault_plan()) {
    set_fault_plan(*plan);
  }
}

void Device::set_fault_plan(faults::FaultPlan plan) {
  injector_ = std::make_unique<faults::FaultInjector>(std::move(plan));
}

void Device::note_fault(faults::FaultKind kind,
                        const faults::FaultContext& context) {
  if (injector_ != nullptr) injector_->record(kind, context);
  if (tracer_ == nullptr) return;
  trace::TraceEvent te;
  te.name = "fault:" + faults::to_string(kind);
  te.category = "fault";
  te.phase = 'i';
  te.start_ns = trace::monotonic_ns();
  te.pid = trace_pid_;
  te.tid = 0;  // command-queue lane
  te.args.emplace_back("ordinal", std::to_string(context.ordinal));
  te.args.emplace_back("context", json_quote(context.describe()));
  tracer_->record(std::move(te));
}

void Device::rebuild_scheduler(std::size_t units) {
  scheduler_ = std::make_unique<ComputeUnitScheduler>(
      units, limits_.local_mem_bytes, limits_.max_workgroup_size);
  if (analyzer_config_.enabled) {
    scheduler_->enable_analysis(hazard_report_, analyzer_config_);
  }
  if (tracer_ != nullptr) {
    scheduler_->set_tracer(tracer_, trace_pid_);
    name_trace_lanes();
  }
}

void Device::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    scheduler_->set_tracer(nullptr, 0);
    return;
  }
  trace_pid_ = tracer_->register_process("device " + name_);
  profiling_ = true;  // spans and event stamps share the same clock
  scheduler_->set_tracer(tracer_, trace_pid_);
  name_trace_lanes();
}

void Device::name_trace_lanes() {
  tracer_->set_thread_name(trace_pid_, 0, "command queue");
  for (std::size_t i = 0; i < scheduler_->compute_units(); ++i) {
    tracer_->set_thread_name(trace_pid_, 1 + i, "cu " + std::to_string(i));
  }
}

void Device::set_compute_units(std::size_t units) {
  BINOPT_REQUIRE(units >= 1, "device '", name_,
                 "' needs at least one compute unit");
  if (units == scheduler_->compute_units()) return;
  rebuild_scheduler(units);
}

void Device::set_analyzer(analyzer::AnalyzerConfig config) {
  analyzer_config_ = config;
  hazard_report_.set_max_reports(config.max_reports);
  rebuild_scheduler(scheduler_->compute_units());
}

void Device::execute(const Kernel& kernel, const KernelArgs& args,
                     NDRange range) {
  if (injector_ != nullptr) {
    const faults::LaunchFaults f = injector_->next_launch();
    faults::FaultContext ctx;
    ctx.device = name_;
    ctx.resource = kernel.name;
    ctx.domain = faults::FaultDomain::kLaunch;
    ctx.ordinal = f.ordinal;
    if (f.stall_ns != 0) {
      // Stalled launch: burn real wall time before (maybe) running, so the
      // queue's watchdog deadline — which measures actual elapsed time —
      // can classify this command as lost.
      note_fault(faults::FaultKind::kStall, ctx);
      std::this_thread::sleep_for(std::chrono::nanoseconds(f.stall_ns));
    }
    if (f.device_lost) {
      note_fault(faults::FaultKind::kDeviceLost, ctx);
      throw faults::DeviceLostError(
          faults::FaultKind::kDeviceLost, ctx,
          "injected fault: device lost (" + ctx.describe() + ")");
    }
    if (f.transient) {
      note_fault(faults::FaultKind::kTransient, ctx);
      throw faults::TransientDeviceError(
          faults::FaultKind::kTransient, ctx,
          "injected fault: transient launch failure (" + ctx.describe() +
              ")");
    }
    if (f.kill_cu.has_value()) {
      // A compute unit dies at launch start: the launch fails before any
      // work-group runs, so no counter moves, whatever the unit count.
      ctx.cu = *f.kill_cu % scheduler_->compute_units();
      note_fault(faults::FaultKind::kCuDeath, ctx);
      throw faults::TransientDeviceError(
          faults::FaultKind::kCuDeath, ctx,
          "injected fault: compute-unit worker " + std::to_string(ctx.cu) +
              " died (" + ctx.describe() + ")");
    }
  }
  scheduler_->execute(kernel, args, range, stats_);
}

}  // namespace binopt::ocl
