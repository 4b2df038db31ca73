/**
 * @file
 * The per-sample task substrate of the PreprocServer fleet
 * (src/service/), which also runs every Schedule::kWorkStealing
 * DataLoader.
 *
 * Each fleet tenant owns a TaskDeque of per-sample fetch tasks.
 * Pushes (decompose, retry/skip requeue) are serialized by the
 * tenant's push mutex; every fleet worker consumes by steal() from
 * the top, FIFO — oldest batch first. A shared BatchBuild per
 * in-flight batch collects the slot results; an atomic countdown
 * elects the last-finishing worker to collate and ship the batch
 * (see DESIGN.md §10 for the memory-order argument).
 *
 * The deque is lock-free for push/steal. It deliberately uses the
 * fence-free seq_cst formulation of Chase–Lev rather than standalone
 * atomic_thread_fence: ThreadSanitizer does not model fences, and the
 * deques must stay TSan-clean (tools/run_tsan.sh). The seq_cst
 * top/bottom operations cost a few cycles more per steal, which is
 * noise next to a sample fetch (tens of microseconds and up).
 */

#ifndef LOTUS_DATAFLOW_WORK_QUEUE_H
#define LOTUS_DATAFLOW_WORK_QUEUE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "pipeline/sample.h"

namespace lotus::dataflow {

struct BatchBuild;

/**
 * One per-sample fetch task. Tasks live in their BatchBuild's `tasks`
 * array (stable addresses); the deques traffic in pointers. Exactly
 * one worker owns a task at any time — the one that stole it — so
 * the non-atomic fields may be mutated and the task re-pushed (retry
 * / skip-refill) without further synchronization: the deque's
 * push/steal ordering publishes the writes to the next owner.
 */
struct SampleTask
{
    BatchBuild *build = nullptr;
    /** Collate slot this task resolves. */
    int slot = 0;
    /** Dataset index currently being attempted (advances on refill). */
    std::int64_t index = 0;
    int retries_left = 0;
    int refills_left = 0;
};

/**
 * Shared assembly state for one decomposed batch. Slot vectors are
 * single-writer (each slot belongs to exactly one task); `remaining`
 * counts unresolved slots, and the fetch_sub that takes it to zero
 * elects the collating worker, which then frees the build: after the
 * last slot resolves no worker owns one of its tasks.
 *
 * The build also carries everything a worker needs to execute its
 * tasks without knowing who submitted them: `seed_base` drives the
 * per-(seed, epoch, sample) RNG reseeding (FetchSeeding), and
 * `generation` identifies the submitting tenant's epoch incarnation.
 */
struct BatchBuild
{
    std::int64_t batch_id = -1;
    /** Fleet worker that decomposed the batch; a task run by any
     *  other worker counts as a steal. */
    int home_worker = 0;
    /** Decompose time on the metrics clock; 0 when metrics are off. */
    TimeNs start = 0;
    /** Decompose time on the tracer's clock; 0 when untraced. */
    TimeNs trace_start = 0;
    /** epochSeedBase(seed, epoch) of the submitting epoch: tasks
     *  reseed with sampleRngSeed(seed_base, index), so mixed-tenant
     *  fleets stay bit-identical to a solo loader per tenant. */
    std::uint64_t seed_base = 0;
    /** Submitting client's epoch incarnation; a mismatch against the
     *  client's live generation means the build was canceled
     *  (disconnect / aborted epoch) and must drain, not ship. */
    std::uint64_t generation = 0;
    std::vector<std::int64_t> indices;
    std::vector<pipeline::Sample> samples;
    std::vector<std::optional<Error>> errors;
    std::vector<SampleTask> tasks;
    std::atomic<int> remaining{0};
};

/**
 * Chase–Lev-style deque of SampleTask pointers, consumed only from
 * the top.
 *
 * Owner-only (one pusher at a time): push(). Any thread: steal().
 * The ring grows on demand (owner-only); retired rings are kept until
 * destruction so a concurrent steal can always dereference the ring
 * it loaded.
 */
class TaskDeque
{
  public:
    explicit TaskDeque(std::int64_t capacity = 64);
    ~TaskDeque() = default;

    TaskDeque(const TaskDeque &) = delete;
    TaskDeque &operator=(const TaskDeque &) = delete;

    /** Owner only: push one task at the bottom. */
    void push(SampleTask *task);

    /** Any thread: steal the oldest task, or null once the deque is
     *  empty (a CAS lost to another thief retries). */
    SampleTask *steal();

  private:
    struct Ring
    {
        explicit Ring(std::int64_t cap)
            : capacity(cap),
              slots(std::make_unique<std::atomic<SampleTask *>[]>(
                  static_cast<std::size_t>(cap)))
        {
        }

        SampleTask *
        get(std::int64_t i) const
        {
            return slots[static_cast<std::size_t>(i & (capacity - 1))]
                .load(std::memory_order_relaxed);
        }

        void
        put(std::int64_t i, SampleTask *task)
        {
            slots[static_cast<std::size_t>(i & (capacity - 1))].store(
                task, std::memory_order_relaxed);
        }

        const std::int64_t capacity;
        std::unique_ptr<std::atomic<SampleTask *>[]> slots;
    };

    /** Owner only: double the ring, copying live entries. */
    Ring *grow(Ring *old, std::int64_t top, std::int64_t bottom);

    alignas(64) std::atomic<std::int64_t> top_{0};
    alignas(64) std::atomic<std::int64_t> bottom_{0};
    std::atomic<Ring *> ring_{nullptr};
    /** Every ring ever allocated; freed only at destruction so a
     *  thief holding a stale ring pointer stays safe. */
    std::vector<std::unique_ptr<Ring>> rings_;
};

/**
 * Idle/wake coordination for a fleet of workers sharing deques.
 *
 * Waking is event-counted: a worker snapshots workEpoch() *before*
 * scanning for work and passes the token to waitForWork(), so a
 * notify that lands between the scan and the wait is never lost. The
 * timeout is only a backstop against pathological scheduling.
 */
class WorkSignal
{
  public:
    /** Current wake-event count; snapshot before scanning for work. */
    std::uint64_t workEpoch() const;

    /** New work exists (task pushed / batch submitted): wake idlers. */
    void notifyWork();

    /** Fleet tear-down: wake everyone for their shutdown check. */
    void notifyShutdown();

    /**
     * Block until notifyWork() advances past @p seen_epoch,
     * notifyShutdown() ran, or @p timeout elapses.
     */
    void waitForWork(std::uint64_t seen_epoch, TimeNs timeout);

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t work_epoch_ = 0;
    bool shutdown_ = false;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_WORK_QUEUE_H
