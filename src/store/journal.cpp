#include "store/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "audit/digest.hpp"

namespace eba {

namespace {

constexpr std::uint8_t kRecordMagic[4] = {'E', 'B', 'J', 'R'};
constexpr char kManifestMagic[4] = {'E', 'B', 'M', 'F'};
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::uint8_t kManifestFrame = 1;
constexpr std::size_t kHeaderBytes = 4 + 8 + 1 + 4;  // magic, seq, kind, len
constexpr std::size_t kTrailerBytes = 8 + 4;         // auth, crc
constexpr std::uint32_t kMaxPayload = 1u << 28;

[[nodiscard]] std::uint64_t auth_of(std::uint64_t key, std::uint64_t seq,
                                    std::uint8_t kind,
                                    std::span<const std::uint8_t> payload) {
  KeyedDigest64 d(key);
  d.u64(seq);
  d.u8(kind);
  d.u32(static_cast<std::uint32_t>(payload.size()));
  for (const std::uint8_t byte : payload) d.u8(byte);
  return d.value();
}

[[nodiscard]] std::uint64_t round_up(std::uint64_t v, std::uint64_t quantum) {
  return (v + quantum - 1) / quantum * quantum;
}

/// Scans one segment's bytes, appending valid records to `out` and advancing
/// `next_seq`. Returns the page-aligned end of the last valid record (which
/// may exceed data.size() when only the padding was torn). In a sealed
/// segment any invalid record is corruption and throws; in the active
/// segment it is a torn tail and the scan just stops there.
std::uint64_t scan_segment(const Bytes& data, const JournalOptions& opt,
                           bool sealed, std::uint64_t& next_seq,
                           std::vector<JournalRecord>& out) {
  std::uint64_t aligned_end = 0;
  std::size_t off = 0;
  const auto torn = [sealed](DecodeError::Kind kind, const char* what) {
    if (sealed)
      throw DecodeError(kind, std::string("sealed segment: ") + what);
  };
  while (off < data.size()) {
    const std::size_t rem = data.size() - off;
    if (rem < kHeaderBytes + kTrailerBytes) {
      torn(DecodeError::Kind::truncated, "record cut short");
      break;
    }
    if (!std::equal(kRecordMagic, kRecordMagic + 4, data.begin() + off)) {
      torn(DecodeError::Kind::bad_magic, "record magic damaged");
      break;
    }
    const std::uint64_t seq = detail::load_le(data.data() + off + 4, 8);
    const std::uint8_t kind = data[off + 12];
    const auto len =
        static_cast<std::uint32_t>(detail::load_le(data.data() + off + 13, 4));
    if (len > kMaxPayload || rem < kHeaderBytes + len + kTrailerBytes) {
      torn(DecodeError::Kind::truncated, "record body cut short");
      break;
    }
    const std::size_t crc_at = off + kHeaderBytes + len + 8;
    if (crc32(data.data() + off, kHeaderBytes + len + 8) !=
        detail::load_le(data.data() + crc_at, 4)) {
      torn(DecodeError::Kind::crc_mismatch, "record checksum damaged");
      break;
    }
    if (seq != next_seq) {
      torn(DecodeError::Kind::malformed, "sequence break");
      break;
    }
    Bytes payload(data.begin() + off + kHeaderBytes,
                  data.begin() + off + kHeaderBytes + len);
    // CRC-valid but auth-bad is not a torn write — the record was written
    // under a different key. Hard error in every segment.
    if (auth_of(opt.key, seq, kind, payload) !=
        detail::load_le(data.data() + off + kHeaderBytes + len, 8))
      throw DecodeError(DecodeError::Kind::key_mismatch,
                        "journal record written under a different key");
    out.push_back(JournalRecord{seq, kind, std::move(payload)});
    next_seq += 1;
    const std::uint64_t padded =
        round_up(kHeaderBytes + len + kTrailerBytes, opt.page_size);
    aligned_end = off + padded;
    off += static_cast<std::size_t>(padded);
  }
  return aligned_end;
}

}  // namespace

std::string Journal::seg_path(std::uint64_t id) const {
  char digits[24];
  std::snprintf(digits, sizeof digits, "%06llu",
                static_cast<unsigned long long>(id));
  std::string path = dir_;
  path += "/seg-";
  path += digits;
  return path;
}

void Journal::write_manifest() {
  Writer payload;
  payload.u64(KeyedDigest64::key_check_word(opt_.key));
  payload.u32(opt_.page_size);
  payload.u32(static_cast<std::uint32_t>(seg_ids_.size()));
  for (std::size_t i = 0; i < seg_ids_.size(); ++i) {
    payload.u64(seg_ids_[i]);
    payload.u64(seg_first_seq_[i]);
  }

  Bytes out;
  write_preamble(out, kManifestMagic, kManifestVersion);
  write_frame(out, kManifestFrame, payload.take());

  const std::string tmp = dir_ + "/MANIFEST.tmp";
  auto file = vfs_->create(tmp);
  file->append(out);
  file->sync();
  vfs_->rename(tmp, dir_ + "/MANIFEST");
  vfs_->sync_dir(dir_ + "/");
}

Journal Journal::create(Vfs& vfs, const std::string& dir,
                        const JournalOptions& opt) {
  Journal j(vfs, dir, opt);
  vfs.make_dirs(dir);
  j.seg_ids_ = {1};
  j.seg_first_seq_ = {1};
  j.active_ = vfs.create(j.seg_path(1));
  j.active_->sync();
  j.write_manifest();
  return j;
}

Journal Journal::open(Vfs& vfs, const std::string& dir,
                      const JournalOptions& opt) {
  const std::string manifest_path = dir + "/MANIFEST";
  if (!vfs.exists(manifest_path))
    throw DecodeError(DecodeError::Kind::missing_frame,
                      "journal manifest missing in " + dir);
  const Bytes mb = vfs.read(manifest_path);
  if (mb.size() < 8 ||
      !std::equal(kManifestMagic, kManifestMagic + 4, mb.begin()))
    throw DecodeError(DecodeError::Kind::bad_magic,
                      "manifest does not start with EBMF");
  if (detail::load_le(mb.data() + 4, 4) != kManifestVersion)
    throw DecodeError(DecodeError::Kind::bad_version,
                      "manifest version unknown to this build");
  std::size_t pos = 8;
  const Frame frame = read_frame(mb, pos);
  if (frame.kind != kManifestFrame)
    throw DecodeError(DecodeError::Kind::missing_frame,
                      "manifest frame has the wrong kind");
  if (pos != mb.size())
    throw DecodeError(DecodeError::Kind::trailing,
                      "manifest has trailing bytes");

  Journal j(vfs, dir, opt);
  {
    Reader r(frame.payload);
    const std::uint64_t key_check = r.u64();
    if (key_check != KeyedDigest64::key_check_word(opt.key))
      throw DecodeError(DecodeError::Kind::key_mismatch,
                        "journal was written under a different key");
    j.opt_.page_size = r.u32();
    if (j.opt_.page_size == 0)
      throw DecodeError(DecodeError::Kind::malformed,
                        "manifest page size is zero");
    const std::uint32_t count = r.u32();
    if (count == 0 || count > (1u << 20))
      throw DecodeError(DecodeError::Kind::malformed,
                        "manifest segment count out of range");
    std::uint64_t prev = 0;
    std::uint64_t prev_seq = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t id = r.u64();
      const std::uint64_t first_seq = r.u64();
      if (id <= prev)
        throw DecodeError(DecodeError::Kind::malformed,
                          "manifest segment ids not increasing");
      // A rolled-but-empty segment repeats its predecessor's first seq;
      // anything decreasing (or a zero) is a corrupt manifest.
      if (first_seq == 0 || first_seq < prev_seq)
        throw DecodeError(DecodeError::Kind::malformed,
                          "manifest segment seqs not monotone");
      j.seg_ids_.push_back(id);
      j.seg_first_seq_.push_back(first_seq);
      prev = id;
      prev_seq = first_seq;
    }
    if (!r.exhausted())
      throw DecodeError(DecodeError::Kind::trailing,
                        "manifest frame has unconsumed bytes");
  }

  // Stray files — a segment created but never committed to the manifest, a
  // manifest temp the rename never covered — are leftovers of interrupted
  // operations. Drop them before they shadow a future segment id.
  {
    const std::set<std::string> known = [&] {
      std::set<std::string> s;
      for (const std::uint64_t id : j.seg_ids_) s.insert(j.seg_path(id));
      return s;
    }();
    bool removed = false;
    for (const std::string& path : vfs.list(dir + "/seg-"))
      if (known.count(path) == 0) {
        vfs.remove(path);
        removed = true;
      }
    if (vfs.exists(dir + "/MANIFEST.tmp")) {
      vfs.remove(dir + "/MANIFEST.tmp");
      removed = true;
    }
    if (removed) vfs.sync_dir(dir + "/");
  }

  std::uint64_t next_seq = j.seg_first_seq_.front();
  for (std::size_t i = 0; i < j.seg_ids_.size(); ++i) {
    const std::string path = j.seg_path(j.seg_ids_[i]);
    if (!vfs.exists(path))
      throw DecodeError(DecodeError::Kind::missing_frame,
                        "manifest names a missing segment: " + path);
    const Bytes data = vfs.read(path);
    const bool sealed = i + 1 != j.seg_ids_.size();
    if (next_seq != j.seg_first_seq_[i])
      throw DecodeError(DecodeError::Kind::malformed,
                        "segment does not start at its manifest seq");
    const std::uint64_t aligned_end =
        scan_segment(data, j.opt_, sealed, next_seq, j.records_);
    // A sealed segment must account for every seq up to its successor's
    // start: committed records cannot silently vanish from the middle.
    if (sealed && next_seq != j.seg_first_seq_[i + 1])
      throw DecodeError(DecodeError::Kind::malformed,
                        "sealed segment is missing committed records");
    if (!sealed) {
      // Repair the active segment back to the page-aligned end of its last
      // valid record: amputate a torn tail, or re-grow padding the cut ate.
      bool repaired = false;
      if (aligned_end < data.size()) {
        vfs.truncate(path, aligned_end);
        repaired = true;
      }
      j.active_ = vfs.open_append(path);
      if (aligned_end > data.size()) {
        const Bytes zeros(static_cast<std::size_t>(aligned_end - data.size()),
                          0);
        j.active_->append(zeros);
        repaired = true;
      }
      if (repaired) j.active_->sync();
      j.active_size_ = aligned_end;
    }
  }
  j.last_seq_ = next_seq - 1;
  return j;
}

std::uint64_t Journal::append(std::uint8_t kind,
                              std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayload)
    throw IoError("journal payload too large");
  if (active_size_ >= opt_.segment_bytes) roll_segment();
  const std::uint64_t seq = last_seq_ + 1;
  const std::size_t body = kHeaderBytes + payload.size() + kTrailerBytes;
  // Frame in place: the zero fill is the page padding, and the buffer keeps
  // its capacity from record to record.
  frame_.assign(static_cast<std::size_t>(round_up(body, opt_.page_size)), 0);
  std::uint8_t* rec = frame_.data();
  std::copy(kRecordMagic, kRecordMagic + 4, rec);
  detail::store_le(rec + 4, seq, 8);
  rec[12] = kind;
  detail::store_le(rec + 13, payload.size(), 4);
  std::copy(payload.begin(), payload.end(), rec + kHeaderBytes);
  const std::size_t auth_at = kHeaderBytes + payload.size();
  detail::store_le(rec + auth_at, auth_of(opt_.key, seq, kind, payload), 8);
  detail::store_le(rec + auth_at + 8, crc32(rec, auth_at + 8), 4);
  active_->append(frame_);
  active_size_ += frame_.size();
  last_seq_ = seq;
  return seq;
}

void Journal::sync() { active_->sync(); }

void Journal::roll_segment() {
  // Records already in the old segment must be durable before the manifest
  // names its successor — the manifest is the recovery root.
  active_->sync();
  const std::uint64_t id = seg_ids_.back() + 1;
  auto fresh = vfs_->create(seg_path(id));
  fresh->sync();
  seg_ids_.push_back(id);
  seg_first_seq_.push_back(last_seq_ + 1);
  write_manifest();
  active_ = std::move(fresh);
  active_size_ = 0;
}

void Journal::gc(std::uint64_t min_seq) {
  std::size_t drop = 0;
  while (drop + 1 < seg_ids_.size() && seg_first_seq_[drop + 1] <= min_seq)
    drop += 1;
  if (drop == 0) return;
  std::vector<std::string> doomed;
  for (std::size_t i = 0; i < drop; ++i)
    doomed.push_back(seg_path(seg_ids_[i]));
  seg_ids_.erase(seg_ids_.begin(), seg_ids_.begin() + drop);
  seg_first_seq_.erase(seg_first_seq_.begin(), seg_first_seq_.begin() + drop);
  write_manifest();
  for (const std::string& path : doomed) vfs_->remove(path);
  vfs_->sync_dir(dir_ + "/");
}

}  // namespace eba
