#include "fault/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fault/campaign.hpp"

namespace issrtl::fault {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() > header_.size()) {
    // Historically the extra cells were silently truncated, which turned a
    // caller's mismatched header/row into a report that *looked* complete.
    throw std::invalid_argument(
        "TextTable::add_row: row has " + std::to_string(cells.size()) +
        " cells but the header has " + std::to_string(header_.size()));
  }
  cells.resize(header_.size());  // short rows pad with empty cells
  rows_.push_back(std::move(cells));
}

std::string TextTable::pct(double fraction, int decimals) {
  if (!std::isfinite(fraction)) {
    // 0-sample campaigns produce NaN fractions (0/0); "nan%" in a report
    // reads like a formatting bug rather than an empty population.
    return "n/a";
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << fraction * 100.0 << "%";
  return os.str();
}

std::string TextTable::num(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << " " << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
         << " |";
    }
    os << "\n";
  };
  emit_row(header_);
  os << "|";
  for (const std::size_t w : widths) os << std::string(w + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

void print_replay_summary(const CampaignResult& r) {
  const ReplayCounters& rc = r.replay;
  std::printf("replay: ladder %llu rungs (%.1f KiB, %llu evicted), restores "
              "%llu ladder / %llu cold, fast-forward %llu cycles, %llu "
              "convergence cutoffs (%llu shifted), %llu prescreened\n",
              static_cast<unsigned long long>(rc.ladder_rungs),
              rc.ladder_bytes / 1024.0,
              static_cast<unsigned long long>(rc.ladder_evicted),
              static_cast<unsigned long long>(rc.ladder_restores),
              static_cast<unsigned long long>(rc.cold_resets),
              static_cast<unsigned long long>(rc.fast_forward_cycles),
              static_cast<unsigned long long>(rc.convergence_cutoffs),
              static_cast<unsigned long long>(rc.shifted_cutoffs),
              static_cast<unsigned long long>(rc.prescreened));
  if (rc.journal_hits != 0 || rc.journal_dropped != 0 ||
      rc.sites_retried != 0 || rc.sites_engine_error != 0) {
    std::printf("durability: %llu journal hits (%llu dropped), "
                "%llu sites retried, %llu engine errors\n",
                static_cast<unsigned long long>(rc.journal_hits),
                static_cast<unsigned long long>(rc.journal_dropped),
                static_cast<unsigned long long>(rc.sites_retried),
                static_cast<unsigned long long>(rc.sites_engine_error));
  }
  if (r.truncated) {
    std::printf("TRUNCATED: %zu/%zu sites completed; re-run with "
                "--journal=DIR --resume to finish\n",
                r.completed_sites, r.total_sites);
  }
}

}  // namespace issrtl::fault
