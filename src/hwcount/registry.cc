#include "hwcount/registry.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/thread_util.h"
#include "hwcount/thread_counters.h"

namespace lotus::hwcount {

namespace {

thread_local KernelScope *current_scope = nullptr;
thread_local OpTag current_op = kNoOp;

} // namespace

/**
 * Per-thread recording state. The owning thread writes without
 * coordination except for the lightweight mutex also taken by
 * snapshot()/reset(); contention is negligible because snapshots
 * happen between runs.
 */
struct KernelRegistry::ThreadState
{
    std::mutex mutex;
    std::uint32_t tid = 0;
    std::array<KernelAccum, kNumKernels> aggregate{};
    std::map<std::pair<OpTag, KernelId>, KernelAccum> by_op;
    std::vector<KernelInterval> timeline;
    /** Operation currently running on this thread (sampler-visible). */
    std::atomic<OpTag> live_op{kNoOp};
};

KernelRegistry::KernelRegistry() : clock_(&SteadyClock::instance()) {}

KernelRegistry &
KernelRegistry::instance()
{
    static KernelRegistry registry;
    return registry;
}

void
KernelRegistry::setClock(const Clock *clock)
{
    LOTUS_ASSERT(clock != nullptr);
    clock_ = clock;
}

void
KernelRegistry::setTimelineEnabled(bool enabled)
{
    timeline_enabled_.store(enabled, std::memory_order_relaxed);
}

void
KernelRegistry::setGroundTruthEnabled(bool enabled)
{
    ground_truth_enabled_.store(enabled, std::memory_order_relaxed);
}

OpTag
KernelRegistry::registerOp(const std::string &name)
{
    std::lock_guard lock(ops_mutex_);
    for (std::size_t i = 0; i < op_names_.size(); ++i) {
        if (op_names_[i] == name)
            return static_cast<OpTag>(i + 1);
    }
    op_names_.push_back(name);
    LOTUS_ASSERT(op_names_.size() < 0xFFFF, "too many registered ops");
    return static_cast<OpTag>(op_names_.size());
}

std::string
KernelRegistry::opName(OpTag tag) const
{
    if (tag == kNoOp)
        return "<none>";
    std::lock_guard lock(ops_mutex_);
    LOTUS_ASSERT(tag <= op_names_.size(), "unknown op tag %u", tag);
    return op_names_[tag - 1];
}

KernelRegistry::ThreadState &
KernelRegistry::threadState()
{
    thread_local std::shared_ptr<ThreadState> state = [this] {
        auto s = std::make_shared<ThreadState>();
        s->tid = currentTid();
        std::lock_guard lock(threads_mutex_);
        threads_.push_back(s);
        return s;
    }();
    return *state;
}

RegistrySnapshot
KernelRegistry::snapshot() const
{
    RegistrySnapshot snap;
    std::vector<std::shared_ptr<ThreadState>> threads;
    {
        std::lock_guard lock(threads_mutex_);
        threads = threads_;
    }
    for (const auto &thread : threads) {
        std::lock_guard lock(thread->mutex);
        for (std::size_t i = 0; i < kNumKernels; ++i)
            snap.aggregate[i] += thread->aggregate[i];
        for (const auto &[key, accum] : thread->by_op)
            snap.by_op[key] += accum;
        snap.timeline.insert(snap.timeline.end(), thread->timeline.begin(),
                             thread->timeline.end());
    }
    std::sort(snap.timeline.begin(), snap.timeline.end(),
              [](const KernelInterval &a, const KernelInterval &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.start != b.start)
                      return a.start < b.start;
                  return a.depth < b.depth;
              });
    return snap;
}

std::vector<std::pair<std::uint32_t, OpTag>>
KernelRegistry::liveOps() const
{
    std::vector<std::shared_ptr<ThreadState>> threads;
    {
        std::lock_guard lock(threads_mutex_);
        threads = threads_;
    }
    std::vector<std::pair<std::uint32_t, OpTag>> out;
    out.reserve(threads.size());
    for (const auto &thread : threads) {
        out.emplace_back(thread->tid,
                         thread->live_op.load(std::memory_order_relaxed));
    }
    return out;
}

void
KernelRegistry::reset()
{
    std::vector<std::shared_ptr<ThreadState>> threads;
    {
        std::lock_guard lock(threads_mutex_);
        threads = threads_;
    }
    for (const auto &thread : threads) {
        std::lock_guard lock(thread->mutex);
        thread->aggregate.fill(KernelAccum{});
        thread->by_op.clear();
        thread->timeline.clear();
    }
}

std::vector<KernelId>
RegistrySnapshot::hotKernels() const
{
    std::vector<KernelId> ids;
    for (std::size_t i = 1; i < kNumKernels; ++i) {
        if (aggregate[i].self_time > 0 || aggregate[i].calls > 0)
            ids.push_back(static_cast<KernelId>(i));
    }
    std::sort(ids.begin(), ids.end(), [this](KernelId a, KernelId b) {
        return aggregate[static_cast<std::size_t>(a)].self_time >
               aggregate[static_cast<std::size_t>(b)].self_time;
    });
    return ids;
}

TimeNs
RegistrySnapshot::totalSelfTime() const
{
    TimeNs total = 0;
    for (std::size_t i = 1; i < kNumKernels; ++i)
        total += aggregate[i].self_time;
    return total;
}

KernelScope::KernelScope(KernelId id)
    : id_(id), parent_(current_scope),
      depth_(parent_ ? static_cast<std::uint16_t>(parent_->depth_ + 1) : 0)
{
    current_scope = this;
    pmu_active_ = ThreadCounterRegistry::threadHasPmu();
    if (pmu_active_)
        pmu_start_ = ThreadCounterRegistry::readCurrent();
    start_ = KernelRegistry::instance().clock().now();
}

KernelScope::~KernelScope()
{
    auto &registry = KernelRegistry::instance();
    const TimeNs end = registry.clock().now();
    const TimeNs total = end - start_;
    const TimeNs self = total - child_time_;
    current_scope = parent_;
    if (parent_)
        parent_->child_time_ += total;

    if (pmu_active_) {
        const CounterSet pmu_total =
            counterDelta(ThreadCounterRegistry::readCurrent(), pmu_start_);
        // Self counters exclude child scopes, mirroring self time.
        ThreadCounterRegistry::instance().charge(
            id_, counterDelta(pmu_total, pmu_child_));
        if (parent_ && parent_->pmu_active_)
            parent_->pmu_child_ += pmu_total;
    }

    auto &thread = registry.threadState();
    std::lock_guard lock(thread.mutex);
    auto &accum = thread.aggregate[static_cast<std::size_t>(id_)];
    accum.calls += 1;
    accum.self_time += self;
    accum.total_time += total;
    accum.stats += stats_;

    if (registry.groundTruthEnabled() && current_op != kNoOp) {
        auto &op_accum = thread.by_op[{current_op, id_}];
        op_accum.calls += 1;
        op_accum.self_time += self;
        op_accum.total_time += total;
        op_accum.stats += stats_;
    }

    if (registry.timelineEnabled()) {
        thread.timeline.push_back(KernelInterval{
            id_, thread.tid, start_, end, depth_, current_op, stats_});
    }
}

OpTag
setCurrentOpTag(OpTag tag)
{
    const OpTag previous = std::exchange(current_op, tag);
    KernelRegistry::instance().threadState().live_op.store(
        tag, std::memory_order_relaxed);
    return previous;
}

OpTag
currentOpTag()
{
    return current_op;
}

} // namespace lotus::hwcount
