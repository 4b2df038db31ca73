#include "pipeline/compose.h"

namespace lotus::pipeline {

Compose::Compose(std::vector<TransformPtr> transforms)
{
    for (auto &transform : transforms)
        add(std::move(transform));
}

void
Compose::add(TransformPtr transform)
{
    LOTUS_ASSERT(transform != nullptr, "null transform");
    Entry entry;
    entry.op_tag =
        hwcount::KernelRegistry::instance().registerOp(transform->name());
    entry.op_ns = metrics::MetricsRegistry::instance().histogram(
        metrics::labeled("lotus_pipeline_op_ns", "op", transform->name()));
    entry.transform = std::move(transform);
    // The cacheable prefix grows only while every transform so far is
    // deterministic; the first stochastic op ends it permanently.
    if (prefix_len_ == entries_.size() &&
        entry.transform->deterministic())
        ++prefix_len_;
    entries_.push_back(std::move(entry));
}

std::uint64_t
Compose::prefixFingerprint() const
{
    ConfigHash hash;
    hash.mix(static_cast<std::uint64_t>(prefix_len_));
    for (std::size_t i = 0; i < prefix_len_; ++i) {
        hash.mix(entries_[i].transform->name());
        hash.mix(entries_[i].transform->configHash());
    }
    return hash.value();
}

std::vector<std::string>
Compose::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.transform->name());
    return out;
}

void
Compose::operator()(Sample &sample, PipelineContext &ctx) const
{
    applyRange(sample, ctx, 0, entries_.size());
}

void
Compose::applyPrefix(Sample &sample, PipelineContext &ctx) const
{
    applyRange(sample, ctx, 0, prefix_len_);
}

void
Compose::applySuffix(Sample &sample, PipelineContext &ctx) const
{
    applyRange(sample, ctx, prefix_len_, entries_.size());
}

void
Compose::applyRange(Sample &sample, PipelineContext &ctx,
                    std::size_t begin, std::size_t end) const
{
    for (std::size_t i = begin; i < end; ++i) {
        const auto &entry = entries_[i];
        trace::Span span(ctx.opSpan(entry.transform->name(), entry.op_tag,
                                    entry.op_ns));
        entry.transform->apply(sample, ctx.rngRef());
    }
}

} // namespace lotus::pipeline
