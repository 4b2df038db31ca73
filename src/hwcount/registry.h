/**
 * @file
 * Process-wide registry of kernel executions.
 *
 * Compute kernels annotate themselves with a KernelScope. The registry
 * keeps, per thread:
 *
 *  - always-on aggregates per kernel (calls, self/total time, work),
 *    the information a hardware profiler would accumulate over an
 *    end-to-end run at C/C++-function granularity;
 *  - an optional interval timeline (start/end per invocation) recorded
 *    only while collection is enabled — the analogue of VTune/uProf
 *    collection windows controlled through ITT/AMDProfileControl;
 *  - optional ground-truth (operation, kernel) aggregates, available
 *    only when explicitly enabled. Production Lotus never sees these;
 *    they exist to *evaluate* LotusMap's reconstruction quality.
 *
 * Nested kernel scopes are supported; self time excludes enclosed
 * child kernels, matching a sampling profiler's leaf attribution.
 */

#ifndef LOTUS_HWCOUNT_REGISTRY_H
#define LOTUS_HWCOUNT_REGISTRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "hwcount/counters.h"
#include "hwcount/kernel_id.h"
#include "hwcount/work_stats.h"

namespace lotus::hwcount {

/** Tag identifying a high-level operation for ground-truth accounting. */
using OpTag = std::uint16_t;
constexpr OpTag kNoOp = 0;

/** One recorded kernel invocation on the timeline. */
struct KernelInterval
{
    KernelId kernel = KernelId::Invalid;
    std::uint32_t tid = 0;
    TimeNs start = 0;
    TimeNs end = 0;
    /** Nesting depth (0 = outermost). */
    std::uint16_t depth = 0;
    OpTag op = kNoOp;
    WorkStats stats;

    TimeNs duration() const { return end - start; }
};

/** Accumulated view of one kernel (or one (op, kernel) pair). */
struct KernelAccum
{
    std::uint64_t calls = 0;
    /** Time excluding enclosed child kernels. */
    TimeNs self_time = 0;
    /** Wall time of the whole invocation. */
    TimeNs total_time = 0;
    WorkStats stats;

    KernelAccum &
    operator+=(const KernelAccum &o)
    {
        calls += o.calls;
        self_time += o.self_time;
        total_time += o.total_time;
        stats += o.stats;
        return *this;
    }
};

/** Consistent copy of everything the registry knows. */
struct RegistrySnapshot
{
    std::array<KernelAccum, kNumKernels> aggregate{};

    /** Ground truth per (op, kernel); empty unless enabled. */
    std::map<std::pair<OpTag, KernelId>, KernelAccum> by_op;

    /** Recorded intervals, sorted by (tid, start). */
    std::vector<KernelInterval> timeline;

    /** Kernels with nonzero self time, most expensive first. */
    std::vector<KernelId> hotKernels() const;

    /** Total self time across all kernels. */
    TimeNs totalSelfTime() const;
};

class KernelRegistry
{
  public:
    static KernelRegistry &instance();

    /** Substitute the timestamp source (tests). Not thread-safe vs
     *  concurrent kernels; call while quiesced. */
    void setClock(const Clock *clock);
    const Clock &clock() const { return *clock_; }

    /** Gate timeline recording (ITT resume/pause analogue). */
    void setTimelineEnabled(bool enabled);
    bool
    timelineEnabled() const
    {
        return timeline_enabled_.load(std::memory_order_relaxed);
    }

    /** Gate ground-truth (op, kernel) accounting. */
    void setGroundTruthEnabled(bool enabled);
    bool
    groundTruthEnabled() const
    {
        return ground_truth_enabled_.load(std::memory_order_relaxed);
    }

    /** Intern an operation name, returning its tag. */
    OpTag registerOp(const std::string &name);

    /** Name for a previously registered tag. */
    std::string opName(OpTag tag) const;

    /**
     * Merge every thread's data into one snapshot. Intended to be
     * called while the system is quiescent (between runs); safe but
     * possibly mid-kernel-torn otherwise.
     */
    RegistrySnapshot snapshot() const;

    /**
     * The operation currently executing on every known thread —
     * what a sampling Python profiler observes when it walks the
     * process's frames. (tid, kNoOp) entries mean "no operation".
     */
    std::vector<std::pair<std::uint32_t, OpTag>> liveOps() const;

    /** Drop all recorded data (aggregates, timelines, ground truth). */
    void reset();

  private:
    friend class KernelScope;
    friend OpTag setCurrentOpTag(OpTag tag);

    struct ThreadState;

    KernelRegistry();

    ThreadState &threadState();

    const Clock *clock_;
    std::atomic<bool> timeline_enabled_{false};
    std::atomic<bool> ground_truth_enabled_{false};

    mutable std::mutex threads_mutex_;
    std::vector<std::shared_ptr<ThreadState>> threads_;

    mutable std::mutex ops_mutex_;
    std::vector<std::string> op_names_;
};

/**
 * RAII annotation of one kernel invocation.
 *
 * Usage:
 * @code
 *   KernelScope scope(KernelId::IdctBlock);
 *   ... do the work ...
 *   scope.stats().arith_ops += 1024;
 * @endcode
 */
class KernelScope
{
  public:
    explicit KernelScope(KernelId id);
    ~KernelScope();

    KernelScope(const KernelScope &) = delete;
    KernelScope &operator=(const KernelScope &) = delete;

    /** Mutable work accounting for this invocation. */
    WorkStats &stats() { return stats_; }

  private:
    KernelId id_;
    TimeNs start_;
    TimeNs child_time_ = 0;
    WorkStats stats_;
    KernelScope *parent_;
    std::uint16_t depth_;
    /** Counter reading at scope entry and counters consumed by
     *  enclosed child scopes; populated only on threads with a live
     *  PMU group (ThreadCounterRegistry::threadHasPmu()). The self
     *  delta charged at exit mirrors the self-time computation. */
    CounterSet pmu_start_;
    CounterSet pmu_child_;
    bool pmu_active_ = false;
};

/**
 * Make @p tag the calling thread's ground-truth operation (what
 * KernelScope attributes to and liveOps() reports) and return the
 * previous one. trace::Span holds a tag for its extent this way.
 */
OpTag setCurrentOpTag(OpTag tag);

/** Currently active ground-truth op tag on this thread. */
OpTag currentOpTag();

} // namespace lotus::hwcount

#endif // LOTUS_HWCOUNT_REGISTRY_H
