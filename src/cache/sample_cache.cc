#include "cache/sample_cache.h"

#include "trace/logger.h"

namespace lotus::cache {

namespace {

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
CacheKey::hash() const
{
    std::uint64_t h = mix64(dataset_id + 0x9E3779B97F4A7C15ull);
    h = mix64(h ^ prefix_fingerprint);
    h = mix64(h ^ static_cast<std::uint64_t>(sample_index));
    return h;
}

SampleCache::SampleCache(const CacheConfig &config)
    : budget_bytes_(config.budget_bytes)
{
    LOTUS_ASSERT(config.budget_bytes > 0,
                 "cache budget must be positive (validated by the "
                 "DataLoader)");
    LOTUS_ASSERT(config.shards > 0, "cache needs at least one shard");
    shard_budget_ = config.budget_bytes / config.shards;
    if (shard_budget_ <= 0)
        shard_budget_ = 1;
    shards_.reserve(static_cast<std::size_t>(config.shards));
    for (int i = 0; i < config.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    if (!config.materialize_dir.empty())
        disk_ = std::make_unique<MaterializeStore>(config.materialize_dir,
                                                   config.fingerprint);

    auto &registry = metrics::MetricsRegistry::instance();
    hits_metric_ = registry.counter("lotus_cache_hits_total");
    misses_metric_ = registry.counter("lotus_cache_misses_total");
    inserts_metric_ = registry.counter("lotus_cache_inserts_total");
    evictions_metric_ = registry.counter("lotus_cache_evictions_total");
    rejects_metric_ = registry.counter("lotus_cache_rejects_total");
    disk_hits_metric_ = registry.counter("lotus_cache_disk_hits_total");
    disk_spills_metric_ = registry.counter("lotus_cache_spills_total");
    disk_corrupt_metric_ = registry.counter("lotus_cache_corrupt_total");
    bytes_metric_ = registry.gauge("lotus_cache_bytes");
}

std::size_t
SampleCache::sampleBytes(const pipeline::Sample &sample)
{
    return (sample.hasImage() ? sample.image->byteSize() : 0) +
           sample.data.byteSize();
}

SampleCache::Shard &
SampleCache::shardFor(const CacheKey &key) const
{
    return *shards_[key.hash() % shards_.size()];
}

void
SampleCache::logEvent(pipeline::PipelineContext &ctx, const char *what,
                      std::int64_t sample_index) const
{
    if (ctx.logger == nullptr)
        return;
    ctx.logger->instant({.kind = trace::RecordKind::CacheEvent,
                         .batch_id = ctx.batch_id, .pid = ctx.pid,
                         .op_name = std::string("cache:") + what,
                         .sample_index = sample_index});
}

std::optional<pipeline::Sample>
SampleCache::lookup(const CacheKey &key, pipeline::PipelineContext &ctx)
{
    Shard &shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(key);
        if (it != shard.index.end()) {
            Slot &slot = shard.slots[it->second];
            slot.referenced = true;
            // Deep clone under the shard lock: the copy is pooled
            // (freelist pop + memcpy), and handing out a reference
            // instead would race with eviction.
            pipeline::Sample copy = slot.sample;
            raw_.hits.fetch_add(1, std::memory_order_relaxed);
            hits_metric_->add(1);
            logEvent(ctx, "hit", key.sample_index);
            return copy;
        }
    }

    if (disk_ != nullptr) {
        Result<pipeline::Sample> loaded = disk_->tryLoad(key.sample_index);
        if (loaded.ok()) {
            pipeline::Sample sample = loaded.take();
            raw_.disk_hits.fetch_add(1, std::memory_order_relaxed);
            disk_hits_metric_->add(1);
            logEvent(ctx, "disk_hit", key.sample_index);
            // Promote to memory so the next epoch skips the read.
            insertMemory(key, sample, ctx);
            return sample;
        }
        if (loaded.error().code == ErrorCode::kCorruptData) {
            raw_.disk_corrupt.fetch_add(1, std::memory_order_relaxed);
            disk_corrupt_metric_->add(1);
            logEvent(ctx, "corrupt", key.sample_index);
        }
        // kNotFound / kIoError fall through to a plain miss: the
        // caller re-decodes from source, which re-spills on insert.
    }

    raw_.misses.fetch_add(1, std::memory_order_relaxed);
    misses_metric_->add(1);
    logEvent(ctx, "miss", key.sample_index);
    return std::nullopt;
}

bool
SampleCache::contains(const CacheKey &key) const
{
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.index.count(key) != 0)
            return true;
    }
    return disk_ != nullptr && disk_->contains(key.sample_index);
}

void
SampleCache::evictOne(Shard &shard, pipeline::PipelineContext &ctx)
{
    // CLOCK sweep: clear reference bits until an unreferenced
    // occupied slot comes under the hand. Terminates because a full
    // lap clears every bit.
    for (;;) {
        if (shard.slots.empty())
            return;
        Slot &slot = shard.slots[shard.hand];
        const std::size_t victim = shard.hand;
        shard.hand = (shard.hand + 1) % shard.slots.size();
        if (!slot.occupied)
            continue;
        if (slot.referenced) {
            slot.referenced = false;
            continue;
        }
        shard.index.erase(slot.key);
        shard.bytes -= static_cast<std::int64_t>(slot.bytes);
        raw_.bytes.fetch_sub(static_cast<std::int64_t>(slot.bytes),
                             std::memory_order_relaxed);
        bytes_metric_->sub(static_cast<std::int64_t>(slot.bytes));
        slot.sample = pipeline::Sample{};
        slot.bytes = 0;
        slot.occupied = false;
        shard.free_slots.push_back(victim);
        raw_.evictions.fetch_add(1, std::memory_order_relaxed);
        evictions_metric_->add(1);
        logEvent(ctx, "evict", slot.key.sample_index);
        return;
    }
}

void
SampleCache::insertMemory(const CacheKey &key,
                          const pipeline::Sample &sample,
                          pipeline::PipelineContext &ctx)
{
    const std::size_t bytes = sampleBytes(sample);
    if (static_cast<std::int64_t>(bytes) > shard_budget_) {
        // Admitting it would flush an entire shard for one entry.
        raw_.rejects.fetch_add(1, std::memory_order_relaxed);
        rejects_metric_->add(1);
        logEvent(ctx, "reject", key.sample_index);
        return;
    }
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.index.find(key) != shard.index.end())
        return; // Raced with another worker inserting the same key.
    while (shard.bytes + static_cast<std::int64_t>(bytes) > shard_budget_)
        evictOne(shard, ctx);

    std::size_t slot_index;
    if (!shard.free_slots.empty()) {
        slot_index = shard.free_slots.back();
        shard.free_slots.pop_back();
    } else {
        slot_index = shard.slots.size();
        shard.slots.emplace_back();
    }
    Slot &slot = shard.slots[slot_index];
    slot.key = key;
    slot.sample = sample; // Pooled deep copy.
    slot.bytes = bytes;
    slot.referenced = true;
    slot.occupied = true;
    shard.index.emplace(key, slot_index);
    shard.bytes += static_cast<std::int64_t>(bytes);
    raw_.bytes.fetch_add(static_cast<std::int64_t>(bytes),
                         std::memory_order_relaxed);
    bytes_metric_->add(static_cast<std::int64_t>(bytes));
    raw_.inserts.fetch_add(1, std::memory_order_relaxed);
    inserts_metric_->add(1);
}

void
SampleCache::insert(const CacheKey &key, const pipeline::Sample &sample,
                    pipeline::PipelineContext &ctx)
{
    insertMemory(key, sample, ctx);
    if (disk_ != nullptr && !disk_->contains(key.sample_index)) {
        if (disk_->spill(key.sample_index, sample)) {
            raw_.disk_spills.fetch_add(1, std::memory_order_relaxed);
            disk_spills_metric_->add(1);
            logEvent(ctx, "spill", key.sample_index);
        }
    }
}

SampleCache::Stats
SampleCache::stats() const
{
    Stats out;
    out.hits = raw_.hits.load(std::memory_order_relaxed);
    out.misses = raw_.misses.load(std::memory_order_relaxed);
    out.inserts = raw_.inserts.load(std::memory_order_relaxed);
    out.evictions = raw_.evictions.load(std::memory_order_relaxed);
    out.rejects = raw_.rejects.load(std::memory_order_relaxed);
    out.disk_hits = raw_.disk_hits.load(std::memory_order_relaxed);
    out.disk_spills = raw_.disk_spills.load(std::memory_order_relaxed);
    out.disk_corrupt = raw_.disk_corrupt.load(std::memory_order_relaxed);
    out.bytes = raw_.bytes.load(std::memory_order_relaxed);
    return out;
}

} // namespace lotus::cache
