#include "util/status.h"

namespace cqa {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace cqa
