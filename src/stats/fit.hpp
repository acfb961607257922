#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

/// \file fit.hpp
/// Growth-shape fitting for the scaling experiments: given (n, rounds)
/// points, fit rounds ~ c * g(n) for the candidate shapes the paper's bounds
/// predict and report the best-fitting shape by R^2. This is how the paper
/// checks (test_lowerbound) test "where the shape lies" without matching
/// absolute constants.

namespace dualrad::stats {

struct ShapeFit {
  std::string shape;   ///< e.g. "n^1.5 sqrt(log n)"
  double scale = 0.0;  ///< fitted c
  double r2 = 0.0;     ///< coefficient of determination
  /// max/min of rounds_i / g(n_i): flatness of the normalized curve
  /// (1 = perfectly proportional).
  double ratio_spread = 0.0;
};

/// The candidate shapes, slowest-growing first.
/// "n", "n log n", "n log^2 n", "n^1.5", "n^1.5 sqrt(log n)", "n^2".
[[nodiscard]] std::vector<std::string> candidate_shapes();

/// Evaluate a named shape at n.
[[nodiscard]] double shape_value(const std::string& shape, double n);

/// Least-squares fit of y ~ c * g(n) for one shape.
[[nodiscard]] ShapeFit fit_shape(const std::string& shape,
                                 const std::vector<double>& n,
                                 const std::vector<double>& y);

/// Fit all candidate shapes, best (highest R^2) first.
[[nodiscard]] std::vector<ShapeFit> fit_all_shapes(
    const std::vector<double>& n, const std::vector<double>& y);

}  // namespace dualrad::stats
