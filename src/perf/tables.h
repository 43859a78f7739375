// Lightweight fixed-width table rendering for the paper-reproduction
// benchmarks ("bench/" prints one table or figure per binary, with the
// paper's published value next to each measured one).
#pragma once

#include <iostream>
#include <string>
#include <vector>

namespace hcrf::perf {

class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print(std::ostream& os = std::cout) const;

  /// Formats a double with `prec` decimals.
  static std::string Num(double v, int prec = 3);
  /// Formats "measured (paper X)" pairs for paper-comparison tables.
  static std::string VsPaper(double measured, double paper, int prec = 3);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hcrf::perf
