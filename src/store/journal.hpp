// Append-only, segment-based journal with power-cut-safe recovery.
//
// The journal is the durable substrate for run logs (store/run_log.hpp) and
// file-backed traces. Records are CRC-framed, keyed-digest-authenticated,
// and zero-padded to page multiples so every record starts on a page
// boundary; a torn final page can never smear into an earlier record.
//
// On-disk layout (all integers little-endian):
//
//   <dir>/MANIFEST      magic "EBMF", u32 version = 1, then one CRC frame
//                       (kind 1): u64 key_check, u32 page_size,
//                       u32 segment count, count x (u64 segment id,
//                       u64 first seq of the segment). The per-segment
//                       first seqs let a GC'd journal reopen (sequences
//                       no longer start at 1) and let open() detect a
//                       sealed segment that lost committed records.
//   <dir>/seg-NNNNNN    consecutive records, each:
//                         magic "EBJR" (4 bytes)
//                         u64 seq        strictly increasing from 1,
//                                        continuing across segments
//                         u8 kind, u32 payload length, payload
//                         u64 auth       KeyedDigest64(key) over
//                                        seq/kind/len/payload
//                         u32 crc        CRC32 over all prior record bytes
//                       then zero padding to the next page_size multiple.
//
// Fsync discipline: `append` only buffers into the OS; `sync` makes the
// appended records durable. A segment roll syncs the full old segment
// first, then creates + syncs the new segment, then commits the new
// manifest by write-temp -> atomic rename -> directory fsync. The manifest
// therefore never names a segment whose preceding records are not durable.
//
// Open-time recovery scans every manifest segment in order. In the final
// (active) segment, the first invalid record — bad magic, short header,
// CRC mismatch, sequence break — is treated as a torn tail: the segment is
// repaired back to the page-aligned end of the last valid record and the
// journal continues from there. In a sealed (non-final) segment the same
// condition is real corruption, not a power cut, and raises a typed
// DecodeError instead of silently dropping committed records. A record
// whose CRC verifies but whose keyed digest does not was written under a
// different key and always raises DecodeError::Kind::key_mismatch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/serialize.hpp"
#include "store/vfs.hpp"

namespace eba {

struct JournalOptions {
  std::uint64_t key = 0;            ///< keyed-digest key; 0 = unkeyed
  std::uint32_t page_size = 4096;   ///< record alignment quantum
  std::uint64_t segment_bytes = 1u << 20;  ///< roll threshold per segment
};

/// One recovered record: its journal-wide sequence number, caller-chosen
/// kind byte, and payload bytes exactly as appended.
struct JournalRecord {
  std::uint64_t seq = 0;
  std::uint8_t kind = 0;
  Bytes payload;
};

class Journal {
 public:
  /// Starts a fresh journal in `dir` (created if missing): empty first
  /// segment plus a durable manifest. Any older journal state in `dir` is
  /// superseded by the new manifest.
  [[nodiscard]] static Journal create(Vfs& vfs, const std::string& dir,
                                      const JournalOptions& opt = {});

  /// Opens an existing journal, running torn-tail recovery (see header
  /// comment). Throws DecodeError::Kind::missing_frame when no manifest
  /// survived, key_mismatch when `opt.key` does not match the manifest's
  /// key fingerprint or any record's auth word.
  [[nodiscard]] static Journal open(Vfs& vfs, const std::string& dir,
                                    const JournalOptions& opt = {});

  Journal(Journal&&) = default;
  Journal& operator=(Journal&&) = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record; returns its sequence number. Durable only after
  /// the next sync(). Rolls to a new segment when the active one is full.
  std::uint64_t append(std::uint8_t kind,
                       std::span<const std::uint8_t> payload);

  /// fsync of the active segment: every appended record becomes durable.
  void sync();

  /// The records recovered when this journal was opened (empty for a
  /// freshly created journal). Records appended afterwards are not echoed
  /// here — reopen to read them back.
  [[nodiscard]] const std::vector<JournalRecord>& records() const {
    return records_;
  }

  /// Sequence number of the newest record (0 when the journal is empty).
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }

  /// Drops every sealed segment whose records all have seq < min_seq
  /// (manifest rewrite first, then file removal, so a crash in between
  /// leaves only a stray file that the next open cleans up). The active
  /// segment is never dropped.
  void gc(std::uint64_t min_seq);

  [[nodiscard]] std::size_t segment_count() const { return seg_ids_.size(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const JournalOptions& options() const { return opt_; }

 private:
  Journal(Vfs& vfs, std::string dir, JournalOptions opt)
      : vfs_(&vfs), dir_(std::move(dir)), opt_(opt) {}

  void write_manifest();
  void roll_segment();
  [[nodiscard]] std::string seg_path(std::uint64_t id) const;

  Vfs* vfs_;
  std::string dir_;
  JournalOptions opt_;
  std::vector<std::uint64_t> seg_ids_;
  /// seg_first_seq_[i] = seq the i-th segment's first record has (or would
  /// have, for an empty segment); parallel to seg_ids_. Segment i's records
  /// are exactly [seg_first_seq_[i], seg_first_seq_[i+1]).
  std::vector<std::uint64_t> seg_first_seq_;
  std::vector<JournalRecord> records_;
  std::unique_ptr<File> active_;
  std::uint64_t active_size_ = 0;
  std::uint64_t last_seq_ = 0;
  Bytes frame_;  ///< append's reused record buffer (one padded record)
};

}  // namespace eba
