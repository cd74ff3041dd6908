#ifndef CQA_UTIL_STATUS_H_
#define CQA_UTIL_STATUS_H_

#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

/// \file
/// Error-handling primitives in the Arrow/RocksDB style: the library does
/// not throw; fallible operations return `Status` or `Result<T>`.

namespace cqa {

/// Status codes used across the library. The serving façade
/// (serve/service.h) maps every failure onto this taxonomy:
/// InvalidArgument (malformed request), NotFound (unknown database /
/// absent fact), FailedPrecondition (request valid but the current
/// state refuses it, e.g. creating a database that already exists),
/// Unavailable (transient: an expired answer cursor whose snapshot was
/// released — retry from the first page; or a database whose WAL went
/// read-only), DataLoss (durable state is unrecoverably corrupt — a
/// mid-log checksum mismatch, a snapshot that fails validation; see
/// store/), DeadlineExceeded (the request's deadline expired or the
/// server cancelled it while draining — the work was abandoned
/// part-way; re-issue with a larger budget), ResourceExhausted (a
/// bounded server resource is full — the interner's symbol cap — and
/// the request would grow it; retrying will fail the same way). Values
/// are wire-stable (net/ serializes them as raw bytes): new codes
/// append, old ones never renumber.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kUnsupported,
  kInternal,
  kFailedPrecondition,
  kUnavailable,
  kDataLoss,
  kDeadlineExceeded,
  kResourceExhausted,
};

/// A cheap success/error value carrying a code and a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "ParseError: unexpected token".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& st) {
  return os << st.ToString();
}

/// Either a value of type `T` or an error `Status`.
///
/// Access to `value()` on an error aborts the process (the library treats
/// that as a programming error, mirroring `arrow::Result`).
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : data_(std::move(value)) {}
  /* implicit */ Result(Status status) : data_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(data_);
  }

  const T& value() const& {
    CheckOk();
    return std::get<T>(data_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    CheckOk();
    return std::move(std::get<T>(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out rather than copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::abort();
    }
  }
  std::variant<T, Status> data_;
};

/// Evaluates an expression returning Status and propagates errors.
#define CQA_RETURN_NOT_OK(expr)            \
  do {                                     \
    ::cqa::Status _st = (expr);            \
    if (!_st.ok()) return _st;             \
  } while (0)

}  // namespace cqa

#endif  // CQA_UTIL_STATUS_H_
