#include "trace/record.h"

#include <charconv>
#include <iterator>

#include "common/logging.h"
#include "common/strings.h"

namespace lotus::trace {

namespace {

/** CSV kind names, indexed by RecordKind. */
constexpr const char *kKindNames[] = {
    "SBatchPreprocessed", "SBatchWait", "SBatchConsumed", "STransformOp",
    "SGpuCompute",        "SEpoch",     "SError",         "STask",
    "SSteal",             "SCache",     "SIo"};
static_assert(std::size(kKindNames) ==
                  static_cast<std::size_t>(RecordKind::IoEvent) + 1,
              "one name per RecordKind");

Result<RecordKind>
kindFromName(const std::string &name)
{
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (name == kKindNames[k])
            return static_cast<RecordKind>(k);
    }
    return LOTUS_ERROR(ErrorCode::kInvalidArgument,
                       "unknown record kind '%s'", name.c_str());
}

/** Parse all of @p field as a decimal integer into @p out. */
template <typename T>
bool
parseField(const std::string &field, T &out)
{
    const char *end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

const char *
recordKindName(RecordKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= std::size(kKindNames))
        LOTUS_PANIC("bad record kind %d", static_cast<int>(kind));
    return kKindNames[index];
}

std::string
TraceRecord::toLine() const
{
    // op names never contain commas; everything else is numeric.
    return strFormat("%s,%lld,%u,%lld,%lld,%s,%lld",
                     recordKindName(kind),
                     static_cast<long long>(batch_id), pid,
                     static_cast<long long>(start),
                     static_cast<long long>(duration), op_name.c_str(),
                     static_cast<long long>(sample_index));
}

Result<TraceRecord>
TraceRecord::fromLine(const std::string &line)
{
    const auto fields = strSplit(line, ',');
    if (fields.size() < 5)
        return LOTUS_ERROR(ErrorCode::kInvalidArgument,
                           "malformed trace line '%s'", line.c_str());
    Result<RecordKind> kind = kindFromName(fields[0]);
    if (!kind.ok())
        return kind.takeError();
    TraceRecord record;
    record.kind = kind.value();
    if (fields.size() > 5)
        record.op_name = fields[5];
    if (!parseField(fields[1], record.batch_id) ||
        !parseField(fields[2], record.pid) ||
        !parseField(fields[3], record.start) ||
        !parseField(fields[4], record.duration) ||
        (fields.size() > 6 && !parseField(fields[6], record.sample_index)))
        return LOTUS_ERROR(ErrorCode::kInvalidArgument,
                           "non-numeric field in trace line '%s'",
                           line.c_str());
    return record;
}

std::string
recordsToText(const std::vector<TraceRecord> &records)
{
    std::string out;
    for (const auto &record : records) {
        out += record.toLine();
        out += '\n';
    }
    return out;
}

Result<std::vector<TraceRecord>>
recordsFromText(const std::string &text)
{
    std::vector<TraceRecord> records;
    for (const auto &line : strSplit(text, '\n')) {
        if (line.empty())
            continue;
        Result<TraceRecord> record = TraceRecord::fromLine(line);
        if (!record.ok())
            return record.takeError();
        records.push_back(record.take());
    }
    return records;
}

} // namespace lotus::trace
