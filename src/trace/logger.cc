#include "trace/logger.h"

#include <algorithm>
#include <atomic>

#include "common/files.h"
#include "common/logging.h"

namespace lotus::trace {

namespace {
std::atomic<std::uint64_t> next_logger_id{1};
} // namespace

TraceLogger::TraceLogger(const Clock *clock)
    : clock_(clock), instance_id_(next_logger_id.fetch_add(1))
{
}

TraceLogger::ThreadBuffer &
TraceLogger::threadBuffer()
{
    thread_local std::vector<
        std::pair<std::uint64_t, std::shared_ptr<ThreadBuffer>>>
        cache;
    for (const auto &[owner, buffer] : cache) {
        if (owner == instance_id_)
            return *buffer;
    }
    auto buffer = std::make_shared<ThreadBuffer>();
    {
        std::lock_guard lock(buffers_mutex_);
        buffers_.push_back(buffer);
    }
    cache.emplace_back(instance_id_, buffer);
    return *buffer;
}

void
TraceLogger::setObserver(Observer observer)
{
    if (logging_started_.load(std::memory_order_acquire))
        LOTUS_FATAL("TraceLogger::setObserver called after logging "
                    "started (%llu records in); set the observer before "
                    "any log() call, or reset() the logger first",
                    static_cast<unsigned long long>(recordCount()));
    observer_ = std::move(observer);
}

void
TraceLogger::log(TraceRecord record)
{
    if (!logging_started_.load(std::memory_order_relaxed))
        logging_started_.store(true, std::memory_order_release);
    if (observer_)
        observer_(record);
    if (!store_records_)
        return;
    auto &buffer = threadBuffer();
    std::lock_guard lock(buffer.mutex);
    buffer.records.push_back(std::move(record));
}

std::vector<TraceRecord>
TraceLogger::records() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard lock(buffers_mutex_);
        buffers = buffers_;
    }
    std::vector<TraceRecord> merged;
    for (const auto &buffer : buffers) {
        std::lock_guard lock(buffer->mutex);
        merged.insert(merged.end(), buffer->records.begin(),
                      buffer->records.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return a.start < b.start;
              });
    return merged;
}

std::uint64_t
TraceLogger::recordCount() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard lock(buffers_mutex_);
        buffers = buffers_;
    }
    std::uint64_t count = 0;
    for (const auto &buffer : buffers) {
        std::lock_guard lock(buffer->mutex);
        count += buffer->records.size();
    }
    return count;
}

std::uint64_t
TraceLogger::writeTo(const std::string &path) const
{
    const std::string text = recordsToText(records());
    writeFile(path, text);
    return text.size();
}

Result<std::vector<TraceRecord>>
TraceLogger::readFrom(const std::string &path)
{
    Result<std::string> text = tryReadFile(path);
    if (!text.ok())
        return text.takeError();
    return recordsFromText(text.value());
}

void
TraceLogger::reset()
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard lock(buffers_mutex_);
        buffers = buffers_;
    }
    for (const auto &buffer : buffers) {
        std::lock_guard lock(buffer->mutex);
        buffer->records.clear();
    }
    logging_started_.store(false, std::memory_order_release);
}

} // namespace lotus::trace
