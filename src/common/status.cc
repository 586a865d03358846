#include "common/status.h"

namespace pictdb {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace pictdb
