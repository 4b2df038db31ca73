/**
 * @file
 * The content-deciding half of per-sample task execution.
 *
 * The PreprocServer fleet (src/service/) executes every per-sample
 * task — its own tenants' and those of a Schedule::kWorkStealing
 * DataLoader. Batch *contents* must nevertheless match the loader's
 * whole-batch paths (round-robin workers and num_workers=0) byte for
 * byte, so what decides them lives here, next to Fetcher: the
 * per-epoch seed mix, and the retry/skip candidate walk that must
 * match Fetcher::fetchSample exactly (the determinism contract of
 * DESIGN.md §10/§15).
 */

#ifndef LOTUS_DATAFLOW_TASK_RUNNER_H
#define LOTUS_DATAFLOW_TASK_RUNNER_H

#include <cstdint>

#include "dataflow/error_policy.h"
#include "dataflow/work_queue.h"
#include "pipeline/sample.h"

namespace lotus::dataflow {

/**
 * Per-epoch RNG seed base for one (base seed, epoch) pair. The epoch
 * must be mixed in — otherwise random-transform augmentation streams
 * repeat identically every epoch even though the shuffle reseeds —
 * and the mix matches epochBatchPlan() (golden-ratio stride).
 * Augmentation draws are then per-sample: every fetch reseeds with
 * sampleRngSeed(epochSeedBase(...), dataset index), so batch contents
 * do not depend on worker count, schedule, tenancy, or execution
 * order (see FetchSeeding in dataflow/fetcher.h).
 */
std::uint64_t epochSeedBase(std::uint64_t seed, std::int64_t epoch);

/** What resolving one task's fetch result means for its owner. */
enum class TaskOutcome
{
    /** Unresolved (transient retry / skip refill): the task object
     *  was mutated and must be re-enqueued by its current owner. */
    kRequeue,
    /** Slot resolved; other slots are still outstanding. */
    kResolved,
    /** Slot resolved and it was the last one: the caller was elected
     *  to complete (collate and ship, or drop) the batch. */
    kBatchDone,
};

/**
 * Resolve @p task's slot with @p sample under @p errors, mirroring
 * Fetcher::fetchSample's candidate walk: kRetry re-attempts the same
 * index while the error is transient and retries remain, kSkip
 * advances to (index + 1) % dataset_size while refills remain, and
 * kFail (or exhaustion) records the error in the slot. Failures are
 * counted via noteSampleError in the caller's lane. The final
 * fetch_sub on the build's countdown uses acq_rel so every slot's
 * writes are visible to whichever worker observes kBatchDone.
 */
TaskOutcome resolveTask(SampleTask *task, Result<pipeline::Sample> sample,
                        const ErrorHandling &errors,
                        std::int64_t dataset_size,
                        pipeline::PipelineContext &ctx);

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_TASK_RUNNER_H
