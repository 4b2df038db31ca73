#include "service/preproc_server.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/strings.h"
#include "common/thread_util.h"
#include "dataflow/task_runner.h"
#include "hwcount/thread_counters.h"
#include "service/loader_client.h"

namespace lotus::service {

using dataflow::BatchBuild;
using dataflow::SampleTask;
using dataflow::TaskOutcome;

namespace {

/** Idle-worker wake backstop; WorkSignal events make the common case
 *  prompt. */
constexpr TimeNs kServiceIdleWait = 200 * kMicrosecond;

void
validateOptions(const ServerOptions &options)
{
    if (options.num_workers <= 0)
        LOTUS_FATAL("ServerOptions: num_workers must be > 0 (got %d)",
                    options.num_workers);
    if (options.max_clients <= 0)
        LOTUS_FATAL("ServerOptions: max_clients must be > 0 (got %d)",
                    options.max_clients);
    if (options.max_inflight_samples <= 0)
        LOTUS_FATAL(
            "ServerOptions: max_inflight_samples must be > 0 (got %lld)",
            static_cast<long long>(options.max_inflight_samples));
    if (options.outbound_capacity < 1)
        LOTUS_FATAL(
            "ServerOptions: outbound_capacity must be >= 1 (got %d)",
            options.outbound_capacity);
}

/** A bad tenant config is refused at connect() like an admission
 *  decision — never fatal, since other tenants share the process. */
std::optional<Error>
validateClientConfig(const ClientConfig &config)
{
    if (config.batch_size <= 0)
        return LOTUS_ERROR(ErrorCode::kInvalidArgument,
                           "ClientConfig: batch_size must be > 0 (got %d)",
                           config.batch_size);
    // Finite and positive: vtime() divides by it, and a NaN vtime
    // would break the victim order's strict weak ordering.
    if (!(config.weight > 0.0 && std::isfinite(config.weight)))
        return LOTUS_ERROR(ErrorCode::kInvalidArgument,
                           "ClientConfig: weight must be finite and > 0 "
                           "(got %g)",
                           config.weight);
    if (config.prefetch_batches < 1)
        return LOTUS_ERROR(
            ErrorCode::kInvalidArgument,
            "ClientConfig: prefetch_batches must be >= 1 (got %d)",
            config.prefetch_batches);
    if (config.max_retries < 0)
        return LOTUS_ERROR(ErrorCode::kInvalidArgument,
                           "ClientConfig: max_retries must be >= 0 (got %d)",
                           config.max_retries);
    if (config.max_refill_attempts < 0)
        return LOTUS_ERROR(
            ErrorCode::kInvalidArgument,
            "ClientConfig: max_refill_attempts must be >= 0 (got %d)",
            config.max_refill_attempts);
    return std::nullopt;
}

/** True when @p build belongs to a canceled incarnation of @p client
 *  (epoch abort or disconnect): its tasks drain as no-ops. */
bool
canceled(const ClientState &client, const BatchBuild &build)
{
    return client.disconnected.load(std::memory_order_acquire) ||
           build.generation !=
               client.generation.load(std::memory_order_acquire);
}

} // namespace

PreprocServer::PreprocServer(ServerOptions options)
    : options_(std::move(options)),
      worker_tids_(static_cast<std::size_t>(
          std::max(options_.num_workers, 0))),
      workers_started_(std::max(options_.num_workers, 0))
{
    validateOptions(options_);
    workers_.reserve(static_cast<std::size_t>(options_.num_workers));
    for (int w = 0; w < options_.num_workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

PreprocServer::~PreprocServer()
{
    {
        std::lock_guard lock(clients_mutex_);
        for (const auto &client : clients_) {
            if (!client->disconnected.load(std::memory_order_acquire))
                LOTUS_FATAL(
                    "PreprocServer '%s' destroyed with client %lld still "
                    "connected; destroy every LoaderClient first (their "
                    "destructors disconnect)",
                    options_.name.c_str(),
                    static_cast<long long>(client->id));
        }
    }
    shutdown_.store(true, std::memory_order_release);
    signal_.notifyShutdown();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
}

Result<std::shared_ptr<LoaderClient>>
PreprocServer::connect(std::shared_ptr<const pipeline::Dataset> dataset,
                       std::shared_ptr<const pipeline::Collate> collate,
                       ClientConfig config)
{
    if (std::optional<Error> invalid = validateClientConfig(config))
        return std::move(*invalid);
    std::shared_ptr<ClientState> state;
    {
        std::lock_guard lock(clients_mutex_);
        auto &registry = metrics::MetricsRegistry::instance();
        if (clients_metric_ == nullptr) {
            clients_metric_ = registry.gauge(kServiceClientsMetric);
            rejected_metric_ = registry.counter(kServiceRejectedMetric);
        }
        int live = 0;
        double min_vtime = -1.0;
        for (const auto &client : clients_) {
            if (client->disconnected.load(std::memory_order_acquire))
                continue;
            ++live;
            const double vtime = client->vtime();
            if (min_vtime < 0.0 || vtime < min_vtime)
                min_vtime = vtime;
        }
        if (live >= options_.max_clients) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            rejected_metric_->add(1);
            return LOTUS_ERROR(
                ErrorCode::kRejected,
                "preproc service '%s': admission control refused the "
                "connection (%d of %d clients connected)",
                options_.name.c_str(), live, options_.max_clients);
        }
        const std::int64_t id = next_client_id_++;
        const std::string label = strFormat("%lld",
                                            static_cast<long long>(id));
        TenantMetrics metrics;
        metrics.tasks = registry.counter(
            metrics::labeled(kServiceTasksMetric, "client", label));
        metrics.batches = registry.counter(
            metrics::labeled(kServiceBatchesMetric, "client", label));
        metrics.wait_ns = registry.histogram(
            metrics::labeled(kServiceWaitNsMetric, "client", label));
        metrics.queue_depth = registry.gauge(
            metrics::labeled(kServiceQueueDepthMetric, "client", label));
        metrics.inflight = registry.gauge(
            metrics::labeled(kServiceInflightMetric, "client", label));
        state = std::make_shared<ClientState>(
            id, dataflow::Fetcher(std::move(dataset), std::move(collate)),
            config, std::move(metrics));
        // Weighted-fair join: a fresh client starts at the fleet's
        // current minimum virtual time — starting at zero would let
        // it monopolize the fleet to "catch up" with tenants that
        // have been running for hours.
        if (min_vtime > 0.0)
            state->service_ns.store(
                static_cast<std::uint64_t>(min_vtime * config.weight),
                std::memory_order_relaxed);
        clients_.push_back(state);
        clients_metric_->set(live + 1);
    }
    return std::shared_ptr<LoaderClient>(
        new LoaderClient(this, std::move(state)));
}

std::shared_ptr<ClientState>
PreprocServer::connectLoader(dataflow::Fetcher fetcher,
                             const ClientConfig &config,
                             TenantMetrics metrics)
{
    std::lock_guard lock(clients_mutex_);
    auto state = std::make_shared<ClientState>(
        next_client_id_++, std::move(fetcher), config, std::move(metrics));
    clients_.push_back(state);
    return state;
}

std::vector<std::uint32_t>
PreprocServer::workerTids()
{
    workers_started_.wait();
    return worker_tids_;
}

ServerStats
PreprocServer::stats() const
{
    ServerStats out;
    out.rejected_connects = rejected_.load(std::memory_order_relaxed);
    out.dropped_tasks = total_dropped_.load(std::memory_order_relaxed);
    std::lock_guard lock(clients_mutex_);
    out.clients.reserve(clients_.size());
    for (const auto &client : clients_) {
        ClientStats stats;
        stats.id = client->id;
        stats.weight = client->config.weight;
        stats.executed_tasks =
            client->executed_tasks.load(std::memory_order_relaxed);
        stats.dropped_tasks =
            client->dropped_tasks.load(std::memory_order_relaxed);
        stats.shipped_batches =
            client->shipped_batches.load(std::memory_order_relaxed);
        stats.inflight_samples =
            client->inflight_samples.load(std::memory_order_relaxed);
        stats.peak_inflight_samples =
            client->peak_inflight.load(std::memory_order_relaxed);
        stats.service_ns =
            client->service_ns.load(std::memory_order_relaxed);
        stats.disconnected =
            client->disconnected.load(std::memory_order_relaxed);
        if (!stats.disconnected)
            ++out.live_clients;
        out.clients.push_back(std::move(stats));
    }
    return out;
}

void
PreprocServer::submit(ClientState &client, Submission submission)
{
    client.pending.push(std::move(submission));
    signal_.notifyWork();
}

void
PreprocServer::drainPending(ClientState &client)
{
    // Samples canceled before they ever became tasks count as dropped
    // alongside the stale-task no-op drain, so a canceled epoch's
    // accounting is complete whether or not decomposition got to it.
    while (auto submission = client.pending.tryPop())
        noteDropped(client, submission->indices.size());
}

void
PreprocServer::noteDropped(ClientState &client, std::uint64_t samples)
{
    client.dropped_tasks.fetch_add(samples, std::memory_order_relaxed);
    total_dropped_.fetch_add(samples, std::memory_order_relaxed);
}

std::uint64_t
PreprocServer::beginEpoch(ClientState &client)
{
    // Bump first: workers decomposing concurrently see the new
    // generation and drop stale submissions the drain loop misses.
    const std::uint64_t generation =
        client.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
    drainPending(client);
    signal_.notifyWork();
    return generation;
}

void
PreprocServer::disconnect(const std::shared_ptr<ClientState> &client)
{
    client->disconnected.store(true, std::memory_order_release);
    client->generation.fetch_add(1, std::memory_order_acq_rel);
    drainPending(*client);
    client->transport->close();
    {
        std::lock_guard lock(clients_mutex_);
        if (clients_metric_ != nullptr) {
            int live = 0;
            for (const auto &other : clients_) {
                if (!other->disconnected.load(std::memory_order_acquire))
                    ++live;
            }
            clients_metric_->set(live);
        }
    }
    // Wake the fleet: idle workers drain the client's stale deque
    // tasks as no-ops, after which reapDisconnected drops the state.
    signal_.notifyWork();
}

std::vector<std::shared_ptr<ClientState>>
PreprocServer::clientsByVtime() const
{
    // Fleet workers move `disconnected` and vtime() while we sort, so
    // the comparator must only see keys read once up front: sorting on
    // live values is not a strict weak ordering, and libstdc++'s
    // unguarded insertion sort then walks off the buffer.
    struct Keyed
    {
        bool live;
        double vtime;
        std::shared_ptr<ClientState> client;
    };
    std::vector<Keyed> keyed;
    {
        std::lock_guard lock(clients_mutex_);
        keyed.reserve(clients_.size());
        for (const auto &client : clients_)
            keyed.push_back(
                {!client->disconnected.load(std::memory_order_relaxed),
                 client->vtime(), client});
    }
    // Disconnected clients first so their cancellation drain (cheap
    // no-op tasks) clears promptly; live clients by virtual time —
    // the weighted-fair victim selection.
    std::sort(keyed.begin(), keyed.end(),
              [](const Keyed &a, const Keyed &b) {
                  return std::tie(a.live, a.vtime, a.client->id) <
                         std::tie(b.live, b.vtime, b.client->id);
              });
    std::vector<std::shared_ptr<ClientState>> order;
    order.reserve(keyed.size());
    for (Keyed &entry : keyed)
        order.push_back(std::move(entry.client));
    return order;
}

void
PreprocServer::reapDisconnected()
{
    std::lock_guard lock(clients_mutex_);
    std::erase_if(clients_, [](const auto &client) {
        return client->disconnected.load(std::memory_order_acquire) &&
               client->inflight_samples.load(std::memory_order_acquire) ==
                   0 &&
               client->inflight_builds.load(std::memory_order_acquire) ==
                   0 &&
               client->pending.empty();
    });
}

bool
PreprocServer::admissible(const ClientState &client) const
{
    // Backpressure: in-flight builds plus the unconsumed outbound
    // backlog stay under the capacity, so the completion send can
    // never block a fleet worker on a slow consumer.
    if (client.inflight_builds.load(std::memory_order_acquire) +
            static_cast<std::int64_t>(client.transport->depth()) >=
        options_.outbound_capacity)
        return false;
    // Admission: defer while in-flight samples would exceed the cap —
    // except from empty, so one oversized batch degrades to serial
    // batches instead of deadlocking.
    const std::int64_t inflight =
        client.inflight_samples.load(std::memory_order_acquire);
    return inflight == 0 ||
           inflight + client.config.batch_size <=
               options_.max_inflight_samples;
}

bool
PreprocServer::tryDecompose(int worker_id)
{
    for (const auto &client : clientsByVtime()) {
        if (client->disconnected.load(std::memory_order_acquire)) {
            // Pending submissions of a disconnected client only need
            // discarding (disconnect drains; this catches races).
            drainPending(*client);
            continue;
        }
        if (client->pending.empty() || !admissible(*client))
            continue;
        std::lock_guard lock(client->push_mutex);
        if (!admissible(*client))
            continue;
        auto submission = client->pending.tryPop();
        if (!submission.has_value())
            continue;
        if (submission->generation !=
            client->generation.load(std::memory_order_acquire)) {
            // Stale epoch residue: discard, counting its samples like
            // the drainPending and stale-task no-op paths do.
            noteDropped(*client, submission->indices.size());
            continue;
        }
        decompose(*client, std::move(*submission), worker_id);
        return true;
    }
    return false;
}

void
PreprocServer::decompose(ClientState &client, Submission submission,
                         int worker_id)
{
    // push_mutex is held by the caller: this thread plays the
    // Chase–Lev owner for the pushes below.
    auto owned = std::make_unique<BatchBuild>();
    BatchBuild *build = owned.get();
    build->batch_id = submission.batch_id;
    build->home_worker = worker_id;
    build->seed_base = submission.seed_base;
    build->generation = submission.generation;
    if (client.config.logger != nullptr)
        build->trace_start = client.config.logger->now();
    if (metrics::enabled())
        build->start = SteadyClock::instance().now();
    build->indices = std::move(submission.indices);
    const auto n = build->indices.size();
    LOTUS_ASSERT(n > 0, "empty batch submitted");
    build->samples.resize(n);
    build->errors.resize(n);
    build->tasks.resize(n);
    build->remaining.store(static_cast<int>(n),
                           std::memory_order_relaxed);
    {
        std::lock_guard lock(client.builds_mutex);
        client.builds.push_back(std::move(owned));
    }
    for (std::size_t slot = 0; slot < n; ++slot) {
        SampleTask &task = build->tasks[slot];
        task.build = build;
        task.slot = static_cast<int>(slot);
        task.index = build->indices[slot];
        task.retries_left = client.errors.max_retries;
        task.refills_left = client.errors.max_refill_attempts;
        client.deque.push(&task);
    }
    client.inflight_builds.fetch_add(1, std::memory_order_acq_rel);
    const std::int64_t inflight =
        client.inflight_samples.fetch_add(static_cast<std::int64_t>(n),
                                          std::memory_order_acq_rel) +
        static_cast<std::int64_t>(n);
    std::int64_t peak = client.peak_inflight.load(std::memory_order_relaxed);
    while (inflight > peak &&
           !client.peak_inflight.compare_exchange_weak(
               peak, inflight, std::memory_order_relaxed))
        ;
    if (client.metrics.inflight != nullptr)
        client.metrics.inflight->set(inflight);
    signal_.notifyWork();
}

bool
PreprocServer::runOneTask(int worker_id, pipeline::PipelineContext &ctx,
                          Rng &rng)
{
    for (const auto &client : clientsByVtime()) {
        if (SampleTask *task = client->deque.steal()) {
            executeTask(*client, task, worker_id, ctx, rng);
            return true;
        }
    }
    return false;
}

void
PreprocServer::executeTask(ClientState &client, SampleTask *task,
                           int worker_id, pipeline::PipelineContext &ctx,
                           Rng &rng)
{
    BatchBuild &build = *task->build;
    // Canceled incarnation (epoch abort / disconnect): drain the task
    // as a no-op. The build still counts down so the last finisher
    // can release it and the in-flight budget.
    if (canceled(client, build)) {
        noteDropped(client, 1);
        if (build.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            finishBatch(client, build, worker_id, ctx);
        return;
    }

    const TenantMetrics &metrics = client.metrics;
    ctx.logger = client.config.logger;
    ctx.batch_id = build.batch_id;
    ctx.sample_index = task->index;
    // The per-sample seeding contract (FetchSeeding): reseed from the
    // *build's* seed base, so a fleet interleaving many tenants'
    // tasks draws exactly what each tenant's solo loader would.
    rng = Rng(dataflow::sampleRngSeed(build.seed_base, task->index));

    // A steal: this task belongs to a batch another worker decomposed.
    if (worker_id != build.home_worker) {
        if (!metrics.steals.empty())
            metrics.steals[static_cast<std::size_t>(worker_id)]->add(1);
        if (ctx.logger != nullptr) {
            trace::TraceRecord record;
            record.kind = trace::RecordKind::StealEvent;
            record.batch_id = build.batch_id;
            record.pid = ctx.pid;
            record.start = ctx.logger->now();
            record.op_name = strFormat("steal<-w%d", build.home_worker);
            record.sample_index = task->index;
            ctx.logger->log(std::move(record));
        }
    }

    trace::SpanTimer span(ctx.logger, trace::RecordKind::TaskSpan);
    span.record().op_name = "task";
    span.record().batch_id = build.batch_id;
    span.record().pid = ctx.pid;
    span.record().sample_index = task->index;
    const TimeNs fetch_start = SteadyClock::instance().now();
    Result<pipeline::Sample> sample = [&] {
        dataflow::PmuSpanGuard pmu_span(metrics.pmu);
        return client.fetcher.getSample(task->index, ctx);
    }();
    const TimeNs fetch_ns = std::max<TimeNs>(
        SteadyClock::instance().now() - fetch_start, 0);
    span.finish();
    ctx.sample_index = -1;

    // Weighted-fair accounting charges measured service time, not
    // task count: a straggler-heavy tenant's vtime advances faster,
    // which is exactly what shields the light tenant's [T2] tail.
    client.service_ns.fetch_add(static_cast<std::uint64_t>(fetch_ns),
                                std::memory_order_relaxed);
    client.executed_tasks.fetch_add(1, std::memory_order_relaxed);
    metrics.tasks->add(1);
    if (!metrics.fetch_ns.empty())
        metrics.fetch_ns[static_cast<std::size_t>(worker_id)]->record(
            static_cast<std::uint64_t>(fetch_ns));

    switch (dataflow::resolveTask(task, std::move(sample), client.errors,
                                  client.fetcher.dataset().size(), ctx)) {
      case TaskOutcome::kRequeue:
        {
            std::lock_guard lock(client.push_mutex);
            client.deque.push(task);
        }
        signal_.notifyWork();
        break;
      case TaskOutcome::kResolved:
        break;
      case TaskOutcome::kBatchDone:
        finishBatch(client, build, worker_id, ctx);
        break;
    }
}

void
PreprocServer::finishBatch(ClientState &client, BatchBuild &build,
                           int worker_id, pipeline::PipelineContext &ctx)
{
    const auto n = static_cast<std::int64_t>(build.indices.size());
    if (!canceled(client, build)) {
        BatchMsg msg;
        msg.client_id = client.id;
        msg.batch_id = build.batch_id;
        msg.generation = build.generation;
        msg.worker_id = worker_id;
        // Deterministic failure selection, like the solo loader: the
        // lowest failed slot is the first failure a sequential fetch
        // would have hit.
        std::size_t first_error = build.errors.size();
        for (std::size_t slot = 0; slot < build.errors.size(); ++slot) {
            if (build.errors[slot].has_value()) {
                first_error = slot;
                break;
            }
        }
        if (first_error < build.errors.size()) {
            msg.error = std::move(*build.errors[first_error]);
        } else {
            ctx.batch_id = build.batch_id;
            ctx.logger = client.config.logger;
            msg.batch = client.fetcher.collateBatch(
                build.batch_id, std::move(build.samples), ctx);
        }
        // [T1] for the whole build: decompose -> last slot + collate,
        // in the finisher's lane.
        if (client.config.logger != nullptr) {
            trace::TraceRecord record;
            record.kind = trace::RecordKind::BatchPreprocessed;
            record.batch_id = build.batch_id;
            record.pid = ctx.pid;
            record.start = build.trace_start;
            record.duration =
                client.config.logger->now() - build.trace_start;
            client.config.logger->log(std::move(record));
        }
        if (build.start != 0 && client.metrics.batch_span_ns != nullptr)
            client.metrics.batch_span_ns->record(static_cast<std::uint64_t>(
                std::max<TimeNs>(SteadyClock::instance().now() - build.start,
                                 0)));
        client.transport->send(std::move(msg));
        client.shipped_batches.fetch_add(1, std::memory_order_relaxed);
        if (client.metrics.batches != nullptr)
            client.metrics.batches->add(1);
        client.metrics.queue_depth->add(1);
    }

    client.inflight_builds.fetch_sub(1, std::memory_order_acq_rel);
    const std::int64_t inflight =
        client.inflight_samples.fetch_sub(n, std::memory_order_acq_rel) -
        n;
    if (client.metrics.inflight != nullptr)
        client.metrics.inflight->set(inflight);
    {
        // Safe to free here: every slot resolved, so no worker owns a
        // task of this build, and thieves never dereference a pointer
        // they lost the CAS race for.
        std::lock_guard lock(client.builds_mutex);
        std::erase_if(client.builds, [&build](const auto &owned) {
            return owned.get() == &build;
        });
    }
    // In-flight budget freed: a deferred decompose may now be
    // admissible.
    signal_.notifyWork();
}

void
PreprocServer::workerLoop(int worker_id)
{
    setCurrentThreadName(strFormat("preproc-%d", worker_id));
    worker_tids_[static_cast<std::size_t>(worker_id)] = currentTid();
    workers_started_.count_down();
    hwcount::ThreadCounterRegistry::instance().attachCurrentThread();
    // The rng object is only the storage ctx points at: executeTask
    // reseeds it per task from (build seed base, dataset index).
    Rng rng(0);
    pipeline::PipelineContext ctx;
    ctx.pid = worker_tids_[static_cast<std::size_t>(worker_id)];
    ctx.rng = &rng;
    for (;;) {
        // Snapshot the wake counter *before* scanning so a notify
        // that lands mid-scan cuts the wait short instead of being
        // lost.
        const std::uint64_t idle_token = signal_.workEpoch();
        if (shutdown_.load(std::memory_order_acquire))
            break;
        if (runOneTask(worker_id, ctx, rng))
            continue;
        if (tryDecompose(worker_id))
            continue;
        reapDisconnected();
        signal_.waitForWork(idle_token, kServiceIdleWait);
    }
    hwcount::ThreadCounterRegistry::instance().detachCurrentThread();
}

} // namespace lotus::service
