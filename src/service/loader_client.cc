#include "service/loader_client.h"

#include "common/clock.h"
#include "dataflow/sampler.h"
#include "dataflow/task_runner.h"

namespace lotus::service {

LoaderClient::LoaderClient(PreprocServer *server,
                           std::shared_ptr<ClientState> state)
    : server_(server), state_(std::move(state))
{
    batches_ = dataflow::epochBatchPlan(
        state_->fetcher.dataset().size(), state_->config.batch_size,
        state_->config.shuffle, state_->config.drop_last,
        state_->config.seed, /*epoch=*/0);
}

LoaderClient::~LoaderClient()
{
    server_->disconnect(state_);
}

std::int64_t
LoaderClient::numBatches() const
{
    return static_cast<std::int64_t>(batches_.size());
}

void
LoaderClient::startEpoch()
{
    // Same epoch numbering as the solo loader: the first start is
    // epoch 0, an error-aborted epoch replays under the same number,
    // and only a completed epoch advances the shuffle.
    if (epoch_started_)
        ++epoch_;
    batches_ = dataflow::epochBatchPlan(
        state_->fetcher.dataset().size(), state_->config.batch_size,
        state_->config.shuffle, state_->config.drop_last,
        state_->config.seed, epoch_);
    seed_base_ = dataflow::epochSeedBase(state_->config.seed, epoch_);
    generation_ = server_->beginEpoch(*state_);
    reorder_.clear();
    send_idx_ = 0;
    rcvd_idx_ = 0;
    epoch_started_ = true;
    pump();
}

void
LoaderClient::pump()
{
    while (send_idx_ < numBatches() &&
           send_idx_ - rcvd_idx_ < state_->config.prefetch_batches) {
        Submission submission;
        submission.batch_id = send_idx_;
        submission.indices =
            batches_[static_cast<std::size_t>(send_idx_)];
        submission.seed_base = seed_base_;
        submission.generation = generation_;
        server_->submit(*state_, std::move(submission));
        ++send_idx_;
    }
}

std::optional<pipeline::Batch>
LoaderClient::next()
{
    if (!epoch_started_)
        startEpoch();
    if (rcvd_idx_ >= numBatches())
        return std::nullopt;
    const std::int64_t wanted = rcvd_idx_;

    BatchMsg msg;
    if (auto cached = reorder_.find(wanted); cached != reorder_.end()) {
        msg = std::move(cached->second);
        reorder_.erase(cached);
    } else {
        // [T2]: blocked on the shared fleet, the service analogue of
        // DataLoader::next() blocking on its data queue.
        const bool measured = metrics::enabled();
        const TimeNs wait_start =
            measured ? SteadyClock::instance().now() : 0;
        for (;;) {
            auto received = state_->transport->receive();
            LOTUS_ASSERT(received.has_value(),
                         "transport closed with batches outstanding");
            state_->metrics.queue_depth->sub(1);
            if (received->generation != generation_)
                continue; // canceled incarnation residue
            if (received->batch_id == wanted) {
                msg = std::move(*received);
                break;
            }
            // Early arrival: hold until its turn so batches (and
            // errors) surface in batch order, like the solo reorder
            // cache.
            reorder_.emplace(received->batch_id, std::move(*received));
        }
        if (measured) {
            const TimeNs waited =
                SteadyClock::instance().now() - wait_start;
            state_->metrics.wait_ns->record(
                static_cast<std::uint64_t>(waited > 0 ? waited : 0));
        }
    }

    if (msg.error.has_value()) {
        // The epoch cannot continue past a failed batch: cancel the
        // outstanding incarnation (the fleet drains it as no-ops
        // without stalling other clients) and re-raise. The epoch
        // number does not advance — startEpoch() replays it.
        generation_ = server_->beginEpoch(*state_);
        reorder_.clear();
        epoch_started_ = false;
        throw dataflow::LoaderError(std::move(*msg.error), msg.batch_id,
                                    msg.worker_id);
    }

    ++rcvd_idx_;
    pump();
    return std::move(msg.batch);
}

} // namespace lotus::service
