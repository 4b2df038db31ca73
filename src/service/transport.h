/**
 * @file
 * Batch transport between the PreprocServer and its clients, and the
 * two messages they exchange: a client's Submission of batch indices
 * and the server's BatchMsg with the built batch.
 *
 * The server ships every completed batch through a BatchTransport —
 * the one seam between "preprocessing fleet" and "training client".
 * Today's only backend is the in-process QueueTransport (the two
 * sides share an address space, like tf.data service's co-located
 * mode); a socket or shared-memory backend slots in behind the same
 * interface without touching the scheduler, because the scheduler
 * only ever asks two things of it: send one message, and how deep is
 * the unconsumed backlog (the per-client backpressure signal).
 */

#ifndef LOTUS_SERVICE_TRANSPORT_H
#define LOTUS_SERVICE_TRANSPORT_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/result.h"
#include "pipeline/sample.h"

namespace lotus::service {

/** One not-yet-decomposed batch submission from a client. */
struct Submission
{
    std::int64_t batch_id = -1;
    std::vector<std::int64_t> indices;
    /** epochSeedBase(seed, epoch) of the submitting epoch. */
    std::uint64_t seed_base = 0;
    /** Epoch incarnation; stale generations drain as no-ops. */
    std::uint64_t generation = 0;
};

/**
 * One completed batch (or its failure) in flight to a client.
 * `generation` stamps the submitting epoch incarnation; the client
 * drops messages from a canceled generation, so a batch that raced a
 * disconnect or an epoch abort can never be mistaken for the new
 * epoch's batch of the same id.
 */
struct BatchMsg
{
    std::int64_t client_id = -1;
    std::int64_t batch_id = -1;
    std::uint64_t generation = 0;
    /** Fleet worker that completed the batch (LoaderError identity). */
    int worker_id = -1;
    pipeline::Batch batch;
    /** Set when the batch failed unrecoverably; `batch` is then empty
     *  and the client re-raises a LoaderError in batch order. */
    std::optional<Error> error;
};

class BatchTransport
{
  public:
    virtual ~BatchTransport() = default;

    /** Server side: ship one completed batch. Never blocks the fleet
     *  — the scheduler's admission rule (in-flight builds + depth()
     *  below the outbound capacity) guarantees room. */
    virtual void send(BatchMsg msg) = 0;

    /** Client side: block for the next message; nullopt only after
     *  close() with the backlog drained. */
    virtual std::optional<BatchMsg> receive() = 0;

    /** Unconsumed outbound backlog (the backpressure signal). */
    virtual std::size_t depth() const = 0;

    /** Disconnect: wake a blocked receive() with end-of-stream. */
    virtual void close() = 0;
};

/** In-process transport: an unbounded MpmcQueue (boundedness is the
 *  scheduler's admission rule, not the queue's — a full queue must
 *  never block a fleet worker mid-send). */
class QueueTransport final : public BatchTransport
{
  public:
    void send(BatchMsg msg) override { queue_.push(std::move(msg)); }

    std::optional<BatchMsg> receive() override { return queue_.pop(); }

    std::size_t depth() const override { return queue_.size(); }

    void close() override { queue_.close(); }

  private:
    MpmcQueue<BatchMsg> queue_;
};

} // namespace lotus::service

#endif // LOTUS_SERVICE_TRANSPORT_H
