// Plain-text table/report helpers shared by benches and examples.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace issrtl::fault {

/// Fixed-width text table with a markdown-ish rendering.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a row. Rows shorter than the header pad with empty cells; rows
  /// *wider* than the header throw std::invalid_argument (they used to be
  /// silently truncated, hiding caller bugs).
  void add_row(std::vector<std::string> cells);
  std::string render() const;

  /// Helpers for numeric cells. pct renders non-finite fractions (e.g. the
  /// NaN a 0-sample campaign yields) as "n/a".
  static std::string pct(double fraction, int decimals = 1);
  static std::string num(double v, int decimals = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& t);

struct CampaignResult;

/// Print the campaign's host-side summary to stdout, as issrtl_cli shows it:
/// the `replay:` line (ladder size, restore sources, fast-forward,
/// convergence cut-offs), a `durability:` line when any journal or
/// worker-isolation counter is nonzero, and a `TRUNCATED:` banner when the
/// campaign stopped early.
void print_replay_summary(const CampaignResult& r);

}  // namespace issrtl::fault
