/**
 * @file
 * Recoverable errors for the sample path.
 *
 * The gem5-spirit split in logging.h (panic = Lotus bug, fatal = bad
 * user config) covers failures that should stop the process. Data
 * that arrives from outside the process — encoded blobs, files on
 * disk, anything a production pipeline would call a "bad record" —
 * must instead fail *recoverably*: one corrupt sample cannot be
 * allowed to abort a characterization campaign. Result<T> is the
 * return currency of that untrusted-input surface (codec decode,
 * blob-store reads); the loader layer turns it into an ErrorPolicy
 * decision (fail / skip / retry).
 */

#ifndef LOTUS_COMMON_RESULT_H
#define LOTUS_COMMON_RESULT_H

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace lotus {

enum class ErrorCode : std::uint8_t
{
    /** Malformed bytes from an untrusted source (corrupt blob). */
    kCorruptData,
    /** A stream or file ended before the expected payload did. */
    kTruncated,
    /** The underlying I/O failed; possibly transient (retryable). */
    kIoError,
    /** A named resource does not exist. */
    kNotFound,
    /** A deadline elapsed before the operation completed (slow or
     *  congested remote store); transient — a retry may find the
     *  store less loaded. */
    kTimeout,
    /** Admission control refused the request (service at capacity).
     *  Not transient from the service's point of view: the caller
     *  decides whether to back off and reconnect. */
    kRejected,
    /** A caller-supplied configuration is invalid (e.g. a tenant's
     *  ClientConfig); refused without side effects, never retried. */
    kInvalidArgument,
};

/** Stable lower-case name, e.g. "corrupt_data". */
const char *errorCodeName(ErrorCode code);

/** True for codes a bounded retry can plausibly clear. */
bool errorIsTransient(ErrorCode code);

struct Error
{
    ErrorCode code = ErrorCode::kCorruptData;
    std::string message;
    /**
     * Sample-path stage the error surfaced in ("store", "decode",
     * ...). Assigned by the dataset layer, which knows the pipeline
     * position; feeds the {stage=...} label of
     * lotus_loader_sample_errors_total and ErrorEvent trace records.
     */
    std::string stage;

    /** "corrupt_data: <message>". */
    std::string describe() const;
};

/** Build an Error with printf-style formatting. */
#define LOTUS_ERROR(code_, ...)                                               \
    (::lotus::Error{(code_), ::lotus::strFormat(__VA_ARGS__), {}})

/**
 * Either a value or an Error. Accessors assert, so forgetting the
 * ok() check is a Lotus bug (panic), never silent garbage.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : state_(std::move(value)) {}
    Result(Error error) : state_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const &
    {
        LOTUS_ASSERT(ok(), "value() on an error Result (%s)",
                     std::get<Error>(state_).describe().c_str());
        return std::get<T>(state_);
    }

    T &
    value() &
    {
        LOTUS_ASSERT(ok(), "value() on an error Result (%s)",
                     std::get<Error>(state_).describe().c_str());
        return std::get<T>(state_);
    }

    /** Move the value out (the Result is spent afterwards). */
    T
    take()
    {
        LOTUS_ASSERT(ok(), "take() on an error Result (%s)",
                     std::get<Error>(state_).describe().c_str());
        return std::move(std::get<T>(state_));
    }

    const Error &
    error() const
    {
        LOTUS_ASSERT(!ok(), "error() on an ok Result");
        return std::get<Error>(state_);
    }

    Error &
    error()
    {
        LOTUS_ASSERT(!ok(), "error() on an ok Result");
        return std::get<Error>(state_);
    }

    /** Move the error out, e.g. to rewrap as a differently-typed
     *  Result (the Result is spent afterwards). */
    Error
    takeError()
    {
        LOTUS_ASSERT(!ok(), "takeError() on an ok Result");
        return std::move(std::get<Error>(state_));
    }

  private:
    std::variant<T, Error> state_;
};

} // namespace lotus

#endif // LOTUS_COMMON_RESULT_H
