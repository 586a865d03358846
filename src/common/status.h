#ifndef PICTDB_COMMON_STATUS_H_
#define PICTDB_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace pictdb {

/// Error categories used across the library. Mirrors the classic storage
/// engine idiom: library functions return a Status instead of throwing.
enum class StatusCode : int {
  kOk = 0,
  kNotFound = 1,
  kInvalidArgument = 2,
  kCorruption = 3,
  kIOError = 4,
  kNotSupported = 5,
  kOutOfRange = 6,
  kAlreadyExists = 7,
  kResourceExhausted = 8,
  kInternal = 9,
  kDataLoss = 10,
  kDeadlineExceeded = 11,
  kFailedPrecondition = 12,
};

/// Return-value error type. Cheap to copy in the OK case (no allocation);
/// error statuses carry a message.
///
/// [[nodiscard]]: ignoring a returned Status silently swallows the
/// error, so every call site must consume it — check it, propagate it,
/// or (rarely, e.g. teardown with nowhere to report) discard it
/// explicitly with a `(void)` cast and a comment saying why.
class [[nodiscard]] Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(StatusCode::kIOError, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(StatusCode::kNotSupported, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(StatusCode::kOutOfRange, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(StatusCode::kAlreadyExists, msg);
  }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(StatusCode::kResourceExhausted, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(StatusCode::kInternal, msg);
  }
  static Status DataLoss(std::string_view msg) {
    return Status(StatusCode::kDataLoss, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(StatusCode::kDeadlineExceeded, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(StatusCode::kFailedPrecondition, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsDataLoss() const { return code_ == StatusCode::kDataLoss; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Category>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  Status(StatusCode code, std::string_view msg)
      : code_(code), message_(msg) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace pictdb

/// Propagate a non-OK status to the caller.
#define PICTDB_RETURN_IF_ERROR(expr)                 \
  do {                                               \
    ::pictdb::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                       \
  } while (0)

/// Evaluate a StatusOr expression, assigning the value or returning the
/// error. Usage: PICTDB_ASSIGN_OR_RETURN(auto v, MakeThing());
#define PICTDB_ASSIGN_OR_RETURN(lhs, expr)           \
  PICTDB_ASSIGN_OR_RETURN_IMPL_(                     \
      PICTDB_STATUS_CONCAT_(_statusor_, __LINE__), lhs, expr)

#define PICTDB_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                                  \
  if (!var.ok()) return var.status();                 \
  lhs = std::move(var).value();

#define PICTDB_STATUS_CONCAT_(a, b) PICTDB_STATUS_CONCAT_IMPL_(a, b)
#define PICTDB_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // PICTDB_COMMON_STATUS_H_
