// Result<T>: a Status or a value of type T, in the style of arrow::Result.
#ifndef TCELLS_COMMON_RESULT_H_
#define TCELLS_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/status.h"

namespace tcells {

/// Prints `status` to stderr and aborts. Out of line so that every
/// ValueOrDie keeps only a test and a call on its hot path.
[[noreturn]] void DieOnErrorResult(const Status& status);

/// Holds either an error Status or a value of type T. A Result constructed
/// from Status must carry a non-OK status (an OK status with no value is a
/// programming error and is converted to kInternal).
template <typename T>
class Result {
 public:
  /// Implicit conversion from an error Status so that
  /// `return Status::InvalidArgument(...)` works in Result-returning code.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// Implicit conversion from a value.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value. On an error Result it prints the status
  /// to stderr and aborts, in every build type: a caller that skipped the
  /// ok() check fails closed instead of reading an empty optional.
  const T& ValueOrDie() const& {
    DieUnlessOk();
    return *value_;
  }
  T& ValueOrDie() & {
    DieUnlessOk();
    return *value_;
  }
  T&& ValueOrDie() && {
    DieUnlessOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value or `alternative` when in error state.
  T ValueOr(T alternative) const {
    return ok() ? *value_ : std::move(alternative);
  }

 private:
  void DieUnlessOk() const {
    if (!ok()) [[unlikely]] DieOnErrorResult(status_);
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace tcells

#endif  // TCELLS_COMMON_RESULT_H_
