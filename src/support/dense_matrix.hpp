#pragma once

/// \file dense_matrix.hpp
/// Minimal row-major dense matrix used for simplex tableaus and the
/// partition-to-partition count matrices (epsilon / b_ij) of the paper.

#include <cstddef>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace pigp {

/// Row-major dense matrix with bounds-checked element access in debug builds.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;

  DenseMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    PIGP_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    PIGP_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of one row.
  [[nodiscard]] std::span<T> row(std::size_t r) {
    PIGP_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    PIGP_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshape to \p rows × \p cols, every element \p value; reuses the
  /// storage when it is large enough.
  void assign(std::size_t rows, std::size_t cols, T value) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }

  friend bool operator==(const DenseMatrix&, const DenseMatrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace pigp
