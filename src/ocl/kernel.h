// Kernel objects and argument binding (the simulator's cl_kernel).
//
// A kernel is a name plus a C++ body in one of two forms:
//   - a lambda body, invoked once per work-item with a WorkItemCtx (ids,
//     local memory) and its bound arguments. It cannot synchronise: the
//     executor runs the group's work-items one after another, as direct
//     calls;
//   - a barrier-phased body: the kernel split at its barriers into a fixed
//     number of phases, written per work-item with the item's private
//     state carried across phases. Every phase of every work-item runs
//     before the next phase of any, which is what a group-wide barrier
//     guarantees. make_phased_kernel compiles the loop over a group's
//     work-items together with the body (work-item coalescing), so the
//     executor makes one call per (group, phase).
//
// A phased body's item loop is compiled once per AccessPolicy, the way an
// accelerator toolchain compiles one binary per set of compile-time
// defines. The executor picks the instance from whether its hazard
// analyzer is armed, which is fixed for a launch:
//   - kArmed (hazard analyzer on): every local and global access goes
//     through the analyzer hooks and is counted into the device's
//     RuntimeStats as it happens;
//   - kOff: the loop binds each local_array once per (group, phase) on a
//     ctx of its own, keeps every bounds and size check with its error,
//     tallies local load and store bytes in locals that never escape the
//     loop, and adds them to RuntimeStats when the phase ends, normally or
//     by a throw. Global accesses (a few per item in kernel IV.B's first
//     phase) go through the same code as under kArmed and as a lambda
//     body's direct calls. Counters come out identical to kArmed's.
// Arguments are position-indexed like clSetKernelArg: buffers or scalars.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"
#include "ocl/buffer.h"
#include "ocl/work_item.h"

namespace binopt::ocl {

/// Bound argument list for one kernel enqueue.
class KernelArgs {
public:
  using Value = std::variant<Buffer*, double, std::int64_t, std::uint64_t>;

  /// Binds argument `index` (gaps are allowed until launch time).
  void set(std::size_t index, Value value);

  [[nodiscard]] std::size_t size() const { return args_.size(); }

  [[nodiscard]] Buffer& buffer(std::size_t index) const;
  [[nodiscard]] double f64(std::size_t index) const;
  [[nodiscard]] std::int64_t i64(std::size_t index) const;
  [[nodiscard]] std::uint64_t u64(std::size_t index) const;

  /// Throws unless every argument slot in [0, size) has been bound.
  void validate_complete() const;

private:
  [[nodiscard]] const Value& at(std::size_t index) const;

  std::vector<std::optional<Value>> args_;
};

/// A kernel body split at its barriers. Phase p of every work-item runs
/// before phase p+1 of any work-item; between consecutive phases lies one
/// group-wide barrier, so a kernel of `phases` phases executes phases - 1
/// barriers per work-item. Private memory that lives across a barrier is
/// kept in a per-work-item state object, value-initialised at the start of
/// every work-group. Build one with make_phased_kernel.
struct PhasedBody {
  /// Runs phase `phase` of every work-item of the group `ctx` (the
  /// executor's ctx for the group) describes, items 0..local_size-1 in
  /// order. `states` holds the group's states, state_bytes apart.
  using Runner = std::function<void(const WorkItemCtx& ctx,
                                    const KernelArgs& args, std::size_t phase,
                                    std::byte* states)>;

  std::size_t phases = 0;
  std::size_t state_bytes = 0;
  /// Value-initialises one work-item's state in place.
  void (*init_state)(void* state) = nullptr;
  /// The item loop compiled once per AccessPolicy, indexed by it.
  std::array<Runner, 2> runners;

  [[nodiscard]] const Runner& runner(AccessPolicy policy) const {
    return runners[static_cast<std::size_t>(policy)];
  }
};

/// A compiled kernel: exactly one of `body` (lambda form, no barriers) or
/// `phased`.
struct Kernel {
  std::string name;
  std::function<void(WorkItemCtx&, const KernelArgs&)> body;
  std::optional<PhasedBody> phased;

  /// Throws unless the kernel sets exactly one body form.
  void validate_form() const;
};

namespace detail {

/// Adds a phase's local-traffic tally to the device counters. Field by
/// field and inline: an out-of-line RuntimeStats::operator+= would take
/// the tally's address and force it into memory.
inline void add_local_traffic(RuntimeStats& into, const RuntimeStats& tally) {
  into.local_load_bytes += tally.local_load_bytes;
  into.local_store_bytes += tally.local_store_bytes;
}

/// One phase of every work-item of `group`, items 0..n-1 in local-id
/// order, with `fn` inlined into the loop. The ctx the items share is a
/// local of this frame, bound per phase. Under kOff its local accessors
/// count into `tally`, another local, added to the device's counters when
/// the phase ends, normally or by a throw; under kArmed they count into
/// the device's counters as they go and the tally stays zero.
template <AccessPolicy kPolicy, typename State, typename Fn>
void run_phase(const Fn& fn, const WorkItemCtx& group, const KernelArgs& args,
               std::size_t phase, std::byte* states) {
  RuntimeStats& device = WorkItemCursor::group_stats(group);
  RuntimeStats tally;
  WorkItemCtx ctx = WorkItemCursor::for_phase(
      group, kPolicy, kPolicy == AccessPolicy::kArmed ? device : tally);
  const std::size_t n = ctx.local_size();
  try {
    for (std::size_t i = 0; i < n; ++i) {
      WorkItemCursor::move_to(ctx, i);
      fn(ctx, args, phase,
         *std::launder(reinterpret_cast<State*>(states + i * sizeof(State))));
    }
  } catch (...) {
    add_local_traffic(device, tally);
    throw;
  }
  add_local_traffic(device, tally);
}

}  // namespace detail

/// Builds a barrier-phased kernel: `fn(ctx, args, phase, state)` runs
/// phase `phase` of the work-item `ctx` describes, with `state` (a
/// State&) its private memory carried across barriers. The body
/// synchronises only at phase boundaries. The loop over the group's
/// work-items is instantiated here, once per AccessPolicy, with `fn`
/// inlined into it.
template <typename State, typename Fn>
[[nodiscard]] Kernel make_phased_kernel(std::string name, std::size_t phases,
                                        Fn fn) {
  static_assert(std::is_trivially_destructible_v<State>,
                "phased-kernel state is reused without destruction");
  static_assert(alignof(State) <= alignof(std::max_align_t),
                "phased-kernel state must not be over-aligned");
  Kernel kernel;
  kernel.name = std::move(name);
  PhasedBody& phased = kernel.phased.emplace();
  phased.phases = phases;
  phased.state_bytes = sizeof(State);
  phased.init_state = [](void* state) { ::new (state) State{}; };
  phased.runners = {
      [fn](const WorkItemCtx& ctx, const KernelArgs& args, std::size_t phase,
           std::byte* states) {
        detail::run_phase<AccessPolicy::kOff, State>(fn, ctx, args, phase,
                                                     states);
      },
      [fn = std::move(fn)](const WorkItemCtx& ctx, const KernelArgs& args,
                           std::size_t phase, std::byte* states) {
        detail::run_phase<AccessPolicy::kArmed, State>(fn, ctx, args, phase,
                                                       states);
      }};
  return kernel;
}

}  // namespace binopt::ocl
