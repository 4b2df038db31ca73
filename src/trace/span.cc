#include "trace/span.h"

#include "hwcount/thread_counters.h"

namespace lotus::trace {

void
Span::open()
{
    if (spec_.histogram != nullptr && !metrics::enabled())
        spec_.histogram = nullptr;
    if (spec_.pmu != nullptr && spec_.pmu->cycles != nullptr &&
        hwcount::ThreadCounterRegistry::threadHasPmu())
        pmu_start_ = hwcount::ThreadCounterRegistry::readCurrent();
    if (spec_.op != hwcount::kNoOp)
        previous_op_ = hwcount::setCurrentOpTag(spec_.op);
    spec_.timed =
        spec_.timed || spec_.logger != nullptr || spec_.histogram != nullptr;
    if (spec_.timed)
        start_ = now();
}

TimeNs
Span::now() const
{
    return spec_.logger != nullptr ? spec_.logger->now()
                                   : SteadyClock::instance().now();
}

bool
Span::end()
{
    if (done_)
        return false;
    done_ = true;
    if (spec_.op != hwcount::kNoOp)
        hwcount::setCurrentOpTag(previous_op_);
    return true;
}

TraceRecord
Span::record(TimeNs duration) const
{
    return {.kind = spec_.kind,
            .batch_id = spec_.batch_id,
            .pid = spec_.pid,
            .start = start_,
            .duration = duration,
            .op_name = std::string(spec_.op_name),
            .sample_index = spec_.sample_index};
}

TimeNs
Span::finish()
{
    if (!end())
        return 0;
    if (pmu_start_.has_value()) {
        const hwcount::CounterSet delta = hwcount::counterDelta(
            hwcount::ThreadCounterRegistry::readCurrent(), *pmu_start_);
        spec_.pmu->cycles->add(delta.cycles);
        spec_.pmu->instructions->add(delta.instructions);
        spec_.pmu->llc_misses->add(delta.llc_misses);
    }
    if (!spec_.timed)
        return 0;
    const TimeNs duration = now() - start_;
    if (spec_.histogram != nullptr)
        spec_.histogram->record(
            static_cast<std::uint64_t>(duration > 0 ? duration : 0));
    if (spec_.logger != nullptr)
        spec_.logger->log(record(duration));
    return duration;
}

void
Span::finishWith(TimeNs duration)
{
    if (!done_ && spec_.logger != nullptr)
        spec_.logger->log(record(duration));
    end();
}

TimeNs
Span::stop()
{
    const TimeNs duration = !done_ && spec_.timed ? now() - start_ : 0;
    end();
    return duration;
}

} // namespace lotus::trace
