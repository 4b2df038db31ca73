#include "dataflow/work_queue.h"

#include <chrono>

#include "common/logging.h"

namespace lotus::dataflow {

TaskDeque::TaskDeque(std::int64_t capacity)
{
    LOTUS_ASSERT(capacity > 0 && (capacity & (capacity - 1)) == 0,
                 "deque capacity must be a power of two");
    rings_.push_back(std::make_unique<Ring>(capacity));
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
}

TaskDeque::Ring *
TaskDeque::grow(Ring *old, std::int64_t top, std::int64_t bottom)
{
    rings_.push_back(std::make_unique<Ring>(old->capacity * 2));
    Ring *fresh = rings_.back().get();
    for (std::int64_t i = top; i < bottom; ++i)
        fresh->put(i, old->get(i));
    // Publish after the copy; a thief that still reads the old ring
    // sees identical entries for every index in [top, bottom).
    ring_.store(fresh, std::memory_order_release);
    return fresh;
}

void
TaskDeque::push(SampleTask *task)
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring *ring = ring_.load(std::memory_order_relaxed);
    if (b - t >= ring->capacity)
        ring = grow(ring, t, b);
    ring->put(b, task);
    // Release: the slot write (and the task fields the owner set)
    // become visible to any thief that observes the new bottom.
    bottom_.store(b + 1, std::memory_order_release);
}

SampleTask *
TaskDeque::steal()
{
    for (;;) {
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b)
            return nullptr;
        Ring *ring = ring_.load(std::memory_order_acquire);
        SampleTask *task = ring->get(t);
        // The slot stays valid until top moves past t (push never laps
        // top), so a successful CAS hands us exactly the task we read.
        if (top_.compare_exchange_strong(t, t + 1,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed))
            return task;
        // Another thief took slot t; the deque may still hold work, and
        // returning null here would send this worker to sleep on it.
    }
}

std::uint64_t
WorkSignal::workEpoch() const
{
    std::lock_guard lock(mutex_);
    return work_epoch_;
}

void
WorkSignal::notifyWork()
{
    {
        std::lock_guard lock(mutex_);
        ++work_epoch_;
    }
    cv_.notify_all();
}

void
WorkSignal::notifyShutdown()
{
    {
        std::lock_guard lock(mutex_);
        shutdown_ = true;
    }
    cv_.notify_all();
}

void
WorkSignal::waitForWork(std::uint64_t seen_epoch, TimeNs timeout)
{
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::nanoseconds(timeout), [&] {
        return work_epoch_ != seen_epoch || shutdown_;
    });
}

} // namespace lotus::dataflow
