#include "common/result.h"

namespace lotus {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kCorruptData: return "corrupt_data";
      case ErrorCode::kTruncated: return "truncated";
      case ErrorCode::kIoError: return "io_error";
      case ErrorCode::kNotFound: return "not_found";
      case ErrorCode::kTimeout: return "timeout";
      case ErrorCode::kRejected: return "rejected";
      case ErrorCode::kInvalidArgument: return "invalid_argument";
    }
    LOTUS_PANIC("bad error code %d", static_cast<int>(code));
}

bool
errorIsTransient(ErrorCode code)
{
    return code == ErrorCode::kIoError || code == ErrorCode::kTimeout;
}

std::string
Error::describe() const
{
    return std::string(errorCodeName(code)) + ": " + message;
}

} // namespace lotus
