#include "tcam/TcamRow.h"

#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "tcam/WriteTemplate.h"

#include "tcam/Dtcam5TRow.h"
#include "tcam/Fefet2FRow.h"
#include "tcam/Fefet4T2FRow.h"
#include "tcam/Mram4T2MRow.h"
#include "tcam/Nem3T2NRow.h"
#include "tcam/Rram2T2RRow.h"
#include "tcam/Sram16TRow.h"

namespace nemtcam::tcam {

const char* kind_name(TcamKind k) {
  switch (k) {
    case TcamKind::Sram16T: return "16T SRAM";
    case TcamKind::Nem3T2N: return "3T2N NEM";
    case TcamKind::Rram2T2R: return "2T2R RRAM";
    case TcamKind::Fefet2F: return "2FeFET";
    case TcamKind::Dtcam5T: return "5T DTCAM";
    case TcamKind::Fefet4T2F: return "4T2F FeFET";
    case TcamKind::Mram4T2M: return "4T2M MRAM";
  }
  return "?";
}

TcamRow::~TcamRow() = default;

TcamRow::TcamRow(int width, int array_rows, const Calibration& cal)
    : stored_(TernaryWord(static_cast<std::size_t>(width), Ternary::X)),
      width_(width), array_rows_(array_rows), cal_(cal) {
  NEMTCAM_EXPECT(width >= 1);
  NEMTCAM_EXPECT(array_rows >= 1);
}

void TcamRow::store(const TernaryWord& word) {
  NEMTCAM_EXPECT(static_cast<int>(word.size()) == width());
  stored_ = word;
}

SearchMetrics TcamRow::search(const TernaryWord& key) {
  if (!search_tpl_)
    search_tpl_ = std::make_unique<SearchTemplate>(
        search_spec_for(kind(), cal()), width(), array_rows());
  search_tpl_->ensure_built(key, stored_);
  rebind_devices(*search_tpl_->circuit());
  return search_tpl_->search(key, stored_, search_tpl_->default_strobe());
}

WriteMetrics TcamRow::write(const TernaryWord& word) {
  NEMTCAM_EXPECT(static_cast<int>(word.size()) == width());
  if (!write_tpl_)
    write_tpl_ = std::make_unique<WriteTemplate>(
        search_spec_for(kind(), cal()), write_spec_for(kind(), cal()),
        width(), array_rows());
  WriteMetrics m = write_tpl_->write(stored_, word);
  if (m.ok) stored_ = word;
  return m;
}

std::unique_ptr<TcamRow> make_row(TcamKind kind, int width, int array_rows,
                                  const Calibration& cal) {
  switch (kind) {
    case TcamKind::Sram16T:
      return std::make_unique<Sram16TRow>(width, array_rows, cal);
    case TcamKind::Nem3T2N:
      return std::make_unique<Nem3T2NRow>(width, array_rows, cal);
    case TcamKind::Rram2T2R:
      return std::make_unique<Rram2T2RRow>(width, array_rows, cal);
    case TcamKind::Fefet2F:
      return std::make_unique<Fefet2FRow>(width, array_rows, cal);
    case TcamKind::Dtcam5T:
      return std::make_unique<Dtcam5TRow>(width, array_rows, cal);
    case TcamKind::Fefet4T2F:
      return std::make_unique<Fefet4T2FRow>(width, array_rows, cal);
    case TcamKind::Mram4T2M:
      return std::make_unique<Mram4T2MRow>(width, array_rows, cal);
  }
  NEMTCAM_EXPECT_MSG(false, "unknown TcamKind");
  return nullptr;
}

SearchTemplateSpec search_spec_for(TcamKind kind, const Calibration& cal) {
  switch (kind) {
    case TcamKind::Sram16T: return sram16t_search_spec(cal);
    case TcamKind::Nem3T2N: return nem3t2n_search_spec(cal);
    case TcamKind::Rram2T2R: return rram2t2r_search_spec(cal);
    case TcamKind::Fefet2F: return fefet2f_search_spec(cal);
    case TcamKind::Dtcam5T: return dtcam5t_search_spec(cal);
    case TcamKind::Fefet4T2F: return fefet4t2f_search_spec(cal);
    case TcamKind::Mram4T2M: return mram4t2m_search_spec(cal);
  }
  NEMTCAM_EXPECT_MSG(false, "unknown TcamKind");
  return {};
}

WriteTemplateSpec write_spec_for(TcamKind kind, const Calibration& cal) {
  switch (kind) {
    case TcamKind::Sram16T: return sram16t_write_spec(cal);
    case TcamKind::Nem3T2N: return nem3t2n_write_spec(cal);
    case TcamKind::Rram2T2R: return rram2t2r_write_spec(cal);
    case TcamKind::Fefet2F: return fefet2f_write_spec(cal);
    case TcamKind::Dtcam5T: return dtcam5t_write_spec(cal);
    case TcamKind::Fefet4T2F: return fefet4t2f_write_spec(cal);
    case TcamKind::Mram4T2M: return mram4t2m_write_spec(cal);
  }
  NEMTCAM_EXPECT_MSG(false, "unknown TcamKind");
  return {};
}

}  // namespace nemtcam::tcam
