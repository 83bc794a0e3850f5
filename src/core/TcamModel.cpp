#include "core/TcamModel.h"

namespace nemtcam::core {

TcamModel::TcamModel(int rows, int width)
    : rows_(rows), width_(width),
      words_(static_cast<std::size_t>(rows),
             TernaryWord(static_cast<std::size_t>(width), Ternary::X)),
      valid_(static_cast<std::size_t>(rows), false) {
  NEMTCAM_EXPECT(rows >= 1 && width >= 1);
}

void TcamModel::check_row(int row) const {
  NEMTCAM_EXPECT_MSG(row >= 0 && row < rows_, "row index out of range");
}

void TcamModel::write(int row, const TernaryWord& word) {
  check_row(row);
  NEMTCAM_EXPECT(static_cast<int>(word.size()) == width_);
  words_[static_cast<std::size_t>(row)] = word;
  valid_[static_cast<std::size_t>(row)] = true;
}

void TcamModel::erase(int row) {
  check_row(row);
  valid_[static_cast<std::size_t>(row)] = false;
}

bool TcamModel::valid(int row) const {
  check_row(row);
  return valid_[static_cast<std::size_t>(row)];
}

const TernaryWord& TcamModel::read(int row) const {
  check_row(row);
  return words_[static_cast<std::size_t>(row)];
}

std::vector<int> TcamModel::search(const TernaryWord& key) const {
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width_);
  std::vector<int> hits;
  for (int r = 0; r < rows_; ++r) {
    if (valid_[static_cast<std::size_t>(r)] &&
        words_[static_cast<std::size_t>(r)].matches(key))
      hits.push_back(r);
  }
  return hits;
}

std::optional<int> TcamModel::search_first(const TernaryWord& key) const {
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width_);
  for (int r = 0; r < rows_; ++r) {
    if (valid_[static_cast<std::size_t>(r)] &&
        words_[static_cast<std::size_t>(r)].matches(key))
      return r;
  }
  return std::nullopt;
}

std::optional<int> TcamModel::find_free_row() const {
  for (int r = 0; r < rows_; ++r)
    if (!valid_[static_cast<std::size_t>(r)]) return r;
  return std::nullopt;
}

int TcamModel::valid_count() const {
  int n = 0;
  for (bool v : valid_)
    if (v) ++n;
  return n;
}

}  // namespace nemtcam::core
