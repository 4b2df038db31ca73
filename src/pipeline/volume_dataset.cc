#include "pipeline/volume_dataset.h"

#include "tensor/serialize.h"

namespace lotus::pipeline {

VolumeDataset::VolumeDataset(std::shared_ptr<const BlobStore> store,
                             std::shared_ptr<const Compose> transforms)
    : store_(std::move(store)), transforms_(std::move(transforms)),
      loader_tag_(hwcount::KernelRegistry::instance().registerOp(
          kLoaderOpName))
{
    LOTUS_ASSERT(store_ != nullptr && transforms_ != nullptr);
}

std::int64_t
VolumeDataset::size() const
{
    return store_->size();
}

Sample
VolumeDataset::get(std::int64_t index, PipelineContext &ctx) const
{
    Sample sample;
    sample.label = index;
    {
        trace::Span span(ctx.opSpan(kLoaderOpName, loader_tag_));
        Result<std::string> blob = readBlobOrStaged(*store_, index);
        if (!blob.ok())
            LOTUS_FATAL("volume %lld: %s", static_cast<long long>(index),
                        blob.error().describe().c_str());
        sample.data = tensor::fromBytes(blob.take());
    }
    (*transforms_)(sample, ctx);
    return sample;
}

} // namespace lotus::pipeline
