#include "pipeline/image_folder.h"

#include "image/codec/codec.h"

namespace lotus::pipeline {

ImageFolderDataset::ImageFolderDataset(
    std::shared_ptr<const BlobStore> store,
    std::shared_ptr<const Compose> transforms, std::int64_t num_classes)
    : store_(std::move(store)), transforms_(std::move(transforms)),
      num_classes_(num_classes),
      loader_tag_(hwcount::KernelRegistry::instance().registerOp(
          kLoaderOpName)),
      dataset_id_(allocateDatasetId())
{
    LOTUS_ASSERT(store_ != nullptr && transforms_ != nullptr);
    LOTUS_ASSERT(num_classes_ > 0);
}

std::int64_t
ImageFolderDataset::size() const
{
    return store_->size();
}

Sample
ImageFolderDataset::get(std::int64_t index, PipelineContext &ctx) const
{
    Result<Sample> sample = tryGet(index, ctx);
    if (!sample.ok())
        LOTUS_FATAL("sample %lld: %s", static_cast<long long>(index),
                    sample.error().describe().c_str());
    return sample.take();
}

Result<Sample>
ImageFolderDataset::tryGet(std::int64_t index, PipelineContext &ctx) const
{
    Result<Sample> prefix = tryGetPrefix(index, ctx);
    if (!prefix.ok())
        return prefix.takeError();
    Sample sample = prefix.take();
    transforms_->applySuffix(sample, ctx);
    return sample;
}

std::optional<CacheableSplit>
ImageFolderDataset::cacheableSplit() const
{
    CacheableSplit split;
    split.dataset_id = dataset_id_;
    split.prefix_fingerprint =
        ConfigHash()
            .mix(std::string("ImageFolderDataset"))
            .mix(static_cast<std::uint64_t>(num_classes_))
            .mix(transforms_->prefixFingerprint())
            .value();
    return split;
}

Result<Sample>
ImageFolderDataset::tryGetPrefix(std::int64_t index,
                                 PipelineContext &ctx) const
{
    Sample sample;
    sample.label = index % num_classes_;
    {
        trace::Span span(ctx.opSpan(kLoaderOpName, loader_tag_));
        Result<std::string> blob = readBlobOrStaged(*store_, index);
        if (!blob.ok()) {
            Error error = blob.takeError();
            error.stage = "store";
            return error;
        }
        Result<image::Image> image = image::codec::tryDecode(blob.value());
        if (!image.ok()) {
            Error error = image.takeError();
            error.stage = "decode";
            return error;
        }
        sample.image = image.take();
    }
    transforms_->applyPrefix(sample, ctx);
    return sample;
}

void
ImageFolderDataset::applySuffix(Sample &sample, PipelineContext &ctx) const
{
    transforms_->applySuffix(sample, ctx);
}

} // namespace lotus::pipeline
