#include "dataflow/read_ahead.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_util.h"
#include "pipeline/sample.h"

namespace lotus::dataflow {

ReadAhead::ReadAhead(const pipeline::BlobStore *store,
                     const ReadAheadOptions &options)
    : store_(store), options_(options)
{
    LOTUS_ASSERT(store_ != nullptr);
    if (options_.depth < 1)
        LOTUS_FATAL("ReadAheadOptions: depth must be >= 1 (got %d)",
                    options_.depth);
    if (options_.io_threads < 1)
        LOTUS_FATAL("ReadAheadOptions: io_threads must be >= 1 (got %d)",
                    options_.io_threads);
    if (options_.io_batch < 0)
        LOTUS_FATAL("ReadAheadOptions: io_batch must be >= 0 (got %d)",
                    options_.io_batch);
    // Auto io_batch: split the window across the issuers with slack
    // (two chunks each) so one thread's coalesced range never starves
    // the others, capped to keep per-call latency bounded. Degenerate
    // windows (depth < 2 * io_threads) divide to 0; the lower clamp
    // keeps every issuer able to make progress one blob at a time.
    io_batch_ = options_.io_batch > 0
                    ? options_.io_batch
                    : std::clamp(options_.depth / (2 * options_.io_threads),
                                 1, 16);
    // A chunk can never usefully exceed the window: issuing more than
    // depth blobs in one tryReadMany would overshoot the bound the
    // claim side relies on for O(depth) memory.
    io_batch_ = std::min(io_batch_, options_.depth);

    auto &registry = metrics::MetricsRegistry::instance();
    hits_ = registry.counter(kReadAheadHitsMetric);
    misses_ = registry.counter(kReadAheadMissesMetric);
    issued_ = registry.counter(kReadAheadIssuedMetric);
    skipped_ = registry.counter(kReadAheadSkippedMetric);
    in_flight_ = registry.gauge(kReadAheadInFlightMetric);
    depth_gauge_ = registry.gauge(kReadAheadDepthMetric);
    depth_gauge_->set(static_cast<std::int64_t>(options_.depth));

    for (int t = 0; t < options_.io_threads; ++t)
        io_threads_.emplace_back([this, t] { ioLoop(t); });
}

ReadAhead::~ReadAhead()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    issue_cv_.notify_all();
    ready_cv_.notify_all();
    for (std::thread &thread : io_threads_)
        thread.join();
}

void
ReadAhead::updateInFlight()
{
    in_flight_->set(
        static_cast<std::int64_t>(entries_.size() - resident_entries_));
}

void
ReadAhead::startEpoch(std::vector<pipeline::BlobReadRequest> plan,
                      trace::TraceLogger *logger, ResidentCheck resident)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++generation_;
        plan_ = std::move(plan);
        next_pos_ = 0;
        logger_ = logger;
        resident_ = resident ? std::make_shared<const ResidentCheck>(
                                   std::move(resident))
                             : nullptr;
        entries_.clear();
        resident_entries_ = 0;
        consumed_.clear();
        updateInFlight();
    }
    issue_cv_.notify_all();
    // Claims blocked on a previous epoch's in-flight entry miss now.
    ready_cv_.notify_all();
}

void
ReadAhead::cancel()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++generation_;
        plan_.clear();
        next_pos_ = 0;
        logger_ = nullptr;
        resident_ = nullptr;
        entries_.clear();
        resident_entries_ = 0;
        consumed_.clear();
        updateInFlight();
    }
    issue_cv_.notify_all();
    ready_cv_.notify_all();
}

std::optional<Result<std::string>>
ReadAhead::claim(std::int64_t index)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Whatever happens below, nobody will consume a *future* prefetch
    // of this index: the caller either takes the parked bytes now or
    // reads synchronously right after we return.
    consumed_.insert(index);
    ++claims_;
    const std::uint64_t gen = generation_;
    auto it = entries_.find(index);
    while (it != entries_.end() && !it->second.resident &&
           !it->second.ready) {
        ready_cv_.wait(lock);
        if (shutdown_ || generation_ != gen) {
            it = entries_.end();
            break;
        }
        // Re-find: a duplicate claimer (kSkip refill landing on our
        // index) may have taken the entry while we slept.
        it = entries_.find(index);
    }
    std::optional<Result<std::string>> blob;
    if (it != entries_.end()) {
        // A resident entry here means the cache evicted the sample
        // before a re-check noticed: a miss that frees its slot.
        if (it->second.resident)
            --resident_entries_;
        else
            blob = std::move(it->second.blob);
        entries_.erase(it);
        updateInFlight();
    }
    (blob.has_value() ? hits_ : misses_)->add(1);
    lock.unlock();
    issue_cv_.notify_all();
    return blob;
}

void
ReadAhead::release(std::int64_t index)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        consumed_.insert(index);
        auto it = entries_.find(index);
        if (it == entries_.end())
            return;
        // An in-flight entry's completion finds no entry and drops its
        // bytes; a claimer blocked on it (a kSkip refill duplicate)
        // re-finds nothing when that completion wakes it, and misses.
        if (it->second.resident)
            --resident_entries_;
        else
            skipped_->add(1); // a read the cache hit made unnecessary
        entries_.erase(it);
        updateInFlight();
    }
    issue_cv_.notify_all();
}

std::optional<pipeline::BlobReadRequest>
ReadAhead::takeEvicted(std::unique_lock<std::mutex> &lock,
                       const ResidentCheck &resident)
{
    std::vector<pipeline::BlobReadRequest> candidates;
    for (const auto &[index, entry] : entries_)
        if (entry.resident)
            candidates.push_back(entry.request);
    const std::uint64_t gen = generation_;
    lock.unlock();
    std::optional<pipeline::BlobReadRequest> evicted;
    for (const pipeline::BlobReadRequest &request : candidates) {
        if (!resident(request.index)) {
            evicted = request;
            break;
        }
    }
    lock.lock();
    if (!evicted.has_value() || generation_ != gen)
        return std::nullopt;
    // Claimed or released meanwhile, or taken by another issuer.
    auto it = entries_.find(evicted->index);
    if (it == entries_.end() || !it->second.resident)
        return std::nullopt;
    it->second.resident = false;
    --resident_entries_;
    return evicted;
}

void
ReadAhead::ioLoop(int thread_id)
{
    setCurrentThreadName(strFormat("lotus-io-%d", thread_id));
    pipeline::PipelineContext ctx;
    ctx.pid = currentTid();

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        issue_cv_.wait(lock, [this] {
            return shutdown_ || recheckDue() ||
                   (next_pos_ < plan_.size() &&
                    entries_.size() <
                        static_cast<std::size_t>(options_.depth));
        });
        if (shutdown_)
            return;

        const std::uint64_t gen = generation_;
        // Held per chunk: startEpoch may replace resident_ while the
        // check runs unlocked.
        const std::shared_ptr<const ResidentCheck> resident = resident_;
        std::vector<pipeline::BlobReadRequest> chunk;
        if (recheckDue()) {
            // An evicted resident entry sits earlier in the plan than
            // anything the walk below adds: read it first. The check
            // is due again at the next claim only once it finds none.
            const std::uint64_t claims = claims_;
            std::optional<pipeline::BlobReadRequest> evicted =
                takeEvicted(lock, *resident);
            if (generation_ != gen)
                continue;
            if (evicted.has_value())
                chunk.push_back(*evicted);
            else
                rechecked_claims_ = claims;
        }
        // Plan position whose index the check found not resident.
        std::size_t checked_pos = plan_.size();
        while (next_pos_ < plan_.size() &&
               entries_.size() < static_cast<std::size_t>(options_.depth) &&
               chunk.size() < static_cast<std::size_t>(io_batch_)) {
            const std::size_t pos = next_pos_;
            const pipeline::BlobReadRequest request = plan_[pos];
            // One index-contiguous run per chunk: a range-reading
            // store serves it in one round trip, so a claim on any of
            // its blobs waits for that trip alone.
            if (!chunk.empty() && request.index != chunk.back().index + 1)
                break;
            if (consumed_.count(request.index) != 0 ||
                entries_.count(request.index) != 0) {
                ++next_pos_;
                continue;
            }
            if (resident && checked_pos != pos) {
                // The check takes cache locks (and may stat a spill
                // file): run it without the engine mutex, then
                // re-validate the position — another issuer may have
                // taken it, or the epoch moved on.
                lock.unlock();
                const bool is_resident = (*resident)(request.index);
                lock.lock();
                if (generation_ != gen)
                    break;
                if (next_pos_ != pos)
                    continue;
                if (is_resident) {
                    ++next_pos_;
                    Entry entry;
                    entry.resident = true;
                    entry.request = request;
                    entries_.emplace(request.index, std::move(entry));
                    ++resident_entries_;
                    skipped_->add(1);
                } else {
                    checked_pos = pos;
                }
                continue; // state may have changed while unlocked
            }
            ++next_pos_;
            entries_.emplace(request.index, Entry{});
            chunk.push_back(request);
        }
        if (generation_ != gen)
            continue; // entries_ was reset under us; nothing to issue
        updateInFlight();
        if (chunk.empty())
            continue;
        ctx.logger = logger_;

        lock.unlock();
        std::vector<Result<std::string>> blobs;
        {
            // Ambient correlation for tracing stores: pid is this I/O
            // thread's lane; batch/sample come per-request, so each
            // IoEvent lands on the sample the read serves.
            pipeline::IoTraceScope scope(&ctx);
            blobs = store_->tryReadMany(chunk);
        }
        LOTUS_ASSERT(blobs.size() == chunk.size(),
                     "tryReadMany returned %zu results for %zu requests",
                     blobs.size(), chunk.size());
        lock.lock();

        issued_->add(chunk.size());
        if (generation_ != gen)
            continue; // epoch moved on: stale bytes, drop them
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            auto it = entries_.find(chunk[i].index);
            if (it == entries_.end() || it->second.ready)
                continue;
            it->second.ready = true;
            it->second.blob = std::move(blobs[i]);
        }
        ready_cv_.notify_all();
    }
}

} // namespace lotus::dataflow
