/**
 * @file
 * Always-on pipeline telemetry: lock-free counters, gauges and
 * log-bucketed histograms behind a process-wide registry.
 *
 * Design rules (they are what preserves the paper's ~0% overhead
 * claim, §III-B):
 *
 *  - Disabled (the default) costs exactly one relaxed load + branch
 *    per instrumentation site; no clock is read, no atomic is
 *    written.
 *  - Enabled costs are bounded by relaxed atomic adds on per-thread
 *    shards: writers never share a cache line with other shards, and
 *    no instrumentation path ever takes a lock.
 *  - Registration (name -> metric) is mutex-protected but happens at
 *    setup time only; hot paths hold raw pointers to metrics, which
 *    are stable for the registry's lifetime.
 *
 * Metric names follow `lotus_<subsystem>_<metric>` with optional
 * Prometheus-style labels appended by labeled(), e.g.
 * `lotus_loader_fetch_ns{worker="3"}`.
 */

#ifndef LOTUS_METRICS_METRICS_H
#define LOTUS_METRICS_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lotus::metrics {

namespace detail {
extern std::atomic<bool> g_enabled;

/** Writer shard for the calling thread: threads are assigned
 *  round-robin so two hot threads never collide on one shard. */
inline unsigned
threadShard(unsigned shard_count)
{
    static std::atomic<unsigned> next_thread{0};
    thread_local const unsigned token =
        next_thread.fetch_add(1, std::memory_order_relaxed);
    return token % shard_count;
}

struct alignas(64) PaddedAtomicU64
{
    std::atomic<std::uint64_t> value{0};
};

} // namespace detail

/** Global enable switch; the one branch every site pays when off. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Flip the process-wide switch (not expected on hot paths). */
void setEnabled(bool on);

/** RAII enable for tests and benches. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on = true) : previous_(enabled())
    {
        setEnabled(on);
    }
    ~ScopedEnable() { setEnabled(previous_); }

    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool previous_;
};

/** `name{key="value"}` — the exporters understand this shape. */
std::string labeled(const std::string &name, const std::string &key,
                    const std::string &value);

/** Two-label variant: `name{k1="v1",k2="v2"}`. */
std::string labeled(const std::string &name, const std::string &key1,
                    const std::string &value1, const std::string &key2,
                    const std::string &value2);

/** Split `family{labels}` into its parts (labels empty when bare). */
void splitLabeled(const std::string &name, std::string &family,
                  std::string &labels);

/** The value of label @p key in a labeled() name, or "" when the
 *  name is bare or the key absent — the inverse consumers (lotus_top
 *  per-client panels) use to group `name{client="N"}` families. */
std::string labelValue(const std::string &name, const std::string &key);

/**
 * 1-based nearest rank, ceil(q * total), computed in integer space.
 * The naive double formulation off-by-ones when q * total should be
 * exactly integral (0.1 * 70 evaluates to 7.000...01 in binary
 * floating point, bumping the rank to 8). q is taken at micro
 * precision; the result is clamped to [1, total]. Returns 0 only for
 * total == 0. Shared by Histogram::quantile and the snapshot-diff
 * quantiles so the two stay bit-equal.
 */
std::uint64_t nearestRank(double q, std::uint64_t total) noexcept;

/**
 * Monotone event counter, sharded per thread.
 */
class Counter
{
  public:
    static constexpr unsigned kShards = 16;

    void
    add(std::uint64_t delta = 1) noexcept
    {
        if (!enabled())
            return;
        shards_[detail::threadShard(kShards)].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    /** Sum over shards (relaxed; exact once writers are quiescent). */
    std::uint64_t
    value() const noexcept
    {
        std::uint64_t total = 0;
        for (const auto &shard : shards_)
            total += shard.value.load(std::memory_order_relaxed);
        return total;
    }

    void
    reset() noexcept
    {
        for (auto &shard : shards_)
            shard.value.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<detail::PaddedAtomicU64, kShards> shards_;
};

/**
 * Instantaneous level (queue depth, cache size): a single signed
 * atomic updated with relaxed add/sub. Levels are read-modify-write
 * shared state by nature, so sharding would only obscure them.
 */
class Gauge
{
  public:
    void
    add(std::int64_t delta) noexcept
    {
        if (!enabled())
            return;
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    void sub(std::int64_t delta) noexcept { add(-delta); }

    void
    set(std::int64_t value) noexcept
    {
        if (!enabled())
            return;
        value_.store(value, std::memory_order_relaxed);
    }

    std::int64_t
    value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    alignas(64) std::atomic<std::int64_t> value_{0};
};

/**
 * Log-bucketed (HDR-style) histogram of non-negative values,
 * typically nanosecond durations.
 *
 * Buckets: values below 8 are exact; above, each power-of-two octave
 * is split into 4 linear sub-buckets, so relative bucket error is
 * <= 12.5% across the full uint64 range with 256 buckets total.
 */
class Histogram
{
  public:
    static constexpr unsigned kShards = 8;
    static constexpr unsigned kSubBuckets = 4; // per octave
    static constexpr unsigned kBuckets = 256;

    /** Bucket for @p value; monotone in @p value. */
    static unsigned
    bucketIndex(std::uint64_t value) noexcept
    {
        if (value < 2 * kSubBuckets)
            return static_cast<unsigned>(value);
        const unsigned exponent =
            static_cast<unsigned>(std::bit_width(value)) - 3;
        const unsigned mantissa =
            static_cast<unsigned>(value >> exponent) & (kSubBuckets - 1);
        return 2 * kSubBuckets + (exponent - 1) * kSubBuckets + mantissa;
    }

    /** Smallest value mapping to bucket @p index. */
    static std::uint64_t
    bucketLowerBound(unsigned index) noexcept
    {
        if (index < 2 * kSubBuckets)
            return index;
        const unsigned exponent = (index - 2 * kSubBuckets) / kSubBuckets + 1;
        const unsigned mantissa = (index - 2 * kSubBuckets) % kSubBuckets;
        return static_cast<std::uint64_t>(kSubBuckets + mantissa)
               << exponent;
    }

    /** Largest value mapping to bucket @p index. */
    static std::uint64_t
    bucketUpperBound(unsigned index) noexcept
    {
        if (index < 2 * kSubBuckets - 1)
            return index;
        return bucketLowerBound(index + 1) - 1;
    }

    void
    record(std::uint64_t value) noexcept
    {
        if (!enabled())
            return;
        auto &shard = shards_[detail::threadShard(kShards)];
        shard.buckets[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
        shard.count.fetch_add(1, std::memory_order_relaxed);
        shard.sum.fetch_add(value, std::memory_order_relaxed);
    }

    std::uint64_t count() const noexcept;
    std::uint64_t sum() const noexcept;

    /** Merged per-bucket counts (size kBuckets). */
    std::vector<std::uint64_t> bucketCounts() const;

    /**
     * Quantile estimate: the upper bound of the bucket holding the
     * q-th recorded value (conservative; error bounded by the bucket
     * width). Returns 0 for an empty histogram.
     */
    std::uint64_t quantile(double q) const;

    void reset() noexcept;

  private:
    struct alignas(64) Shard
    {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
    };

    std::array<Shard, kShards> shards_;
};

struct Snapshot;

/**
 * Process-wide name -> metric directory. Get-or-create calls are
 * mutex-protected and meant for setup paths; returned pointers stay
 * valid for the registry's lifetime, so hot paths cache them.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry every built-in site records into. */
    static MetricsRegistry &instance();

    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);
    Histogram *histogram(const std::string &name);

    /** Consistent-enough point-in-time copy of every metric. */
    Snapshot snapshot() const;

    /** Zero every metric (registrations are kept). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace lotus::metrics

#endif // LOTUS_METRICS_METRICS_H
