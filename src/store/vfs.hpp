// Filesystem seam for the durable storage engine (src/store/).
//
// The journal (store/journal.hpp) never touches the OS directly: every
// byte goes through this `Vfs`/`File` abstraction, which models exactly
// the primitives a crash-safe log needs — append, fsync, atomic rename,
// directory fsync — and nothing else. Two implementations:
//
//  * `MemVfs` — the fault-injecting shim. It tracks, per file, which
//    prefix was durable at the last fsync and, per namespace, which
//    creations/renames/removals a directory fsync has committed. A
//    `power_cut()` rolls the world back to the durable view: unsynced
//    bytes vanish, unsynced creations disappear, unsynced renames
//    revert. A `TearSpec` optionally lets the cut keep part of the
//    unsynced tail (a partially persisted page) and corrupt its final
//    byte — the torn-write case recovery must detect. `fail_appends_after`
//    makes the Nth append fail with a typed `IoError` after a partial
//    write, the way a full disk or yanked cable fails. Every recovery
//    path in tests/test_store.cpp is driven by these injected faults,
//    not by hand-mutated byte vectors.
//  * `DiskVfs` — real POSIX files with real fsync/rename/directory-fsync,
//    so the same journal code runs against an actual filesystem (one
//    tier-1 test and a bench row exercise it; power cuts cannot be
//    injected there, so `power_cut` is a no-op).
//
// The durability contract both implementations honor: bytes appended to a
// file are durable only after `File::sync()`; a namespace change (create,
// rename, remove) is durable only after `Vfs::sync_dir()` on its
// directory. `rename` is atomic in the live view either way — what the
// power cut decides is whether it happened at all.
//
// The cost contract of MemVfs's prefix operations (`list`, `sync_dir`,
// `power_cut`): each costs O(log N + k), where N is the number of paths
// the MemVfs holds and k the number under the prefix. One MemVfs can hold
// thousands of instances' journals (the workload engine gives each its own
// directory), and a crash or directory sync of one instance never pays for
// the files of another. Prefixes are plain string prefixes: "a/1/" covers
// "a/1/x" but not "a/10/x" or the bare file "a/1", and "" covers every
// path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace eba {

/// Typed I/O failure: injected write faults and real OS errors. Distinct
/// from DecodeError (corrupt bytes) and EBA_REQUIRE (caller bugs).
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what)
      : std::runtime_error("io error: " + what) {}
};

/// An append-only file handle. Writes land in the live view immediately;
/// only `sync()` makes them durable against a power cut.
class File {
 public:
  virtual ~File() = default;
  virtual void append(const std::uint8_t* data, std::size_t len) = 0;
  void append(const std::vector<std::uint8_t>& b) {
    append(b.data(), b.size());
  }
  /// fsync: everything appended so far survives a power cut.
  virtual void sync() = 0;
  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

/// A torn write: how much of the cut file's unsynced tail survived the
/// power cut, and whether its final surviving byte was corrupted mid-write.
/// `path` must lie under the cut's prefix (MemVfs::power_cut requires it),
/// so a torn-write sweep cannot silently tear nothing.
struct TearSpec {
  std::string path;       ///< the file whose tail is torn
  std::size_t keep = 0;   ///< unsynced bytes that made it to the platter
  bool corrupt = false;   ///< flip the last kept byte (half-written sector)
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Opens `path` for appending, creating it empty if absent.
  [[nodiscard]] virtual std::unique_ptr<File> open_append(
      const std::string& path) = 0;
  /// Creates (or truncates) `path` and opens it for appending.
  [[nodiscard]] virtual std::unique_ptr<File> create(
      const std::string& path) = 0;
  /// Whole-file read. Throws IoError when the file does not exist.
  [[nodiscard]] virtual std::vector<std::uint8_t> read(
      const std::string& path) const = 0;
  [[nodiscard]] virtual bool exists(const std::string& path) const = 0;
  /// Atomic replace: `to` is either its old content or `from`'s, never a
  /// mixture. Durable only after sync_dir(). `rename(p, p)` of an existing
  /// `p` is a no-op, as in POSIX.
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual void remove(const std::string& path) = 0;
  /// Truncates `path` to `size` bytes (torn-tail amputation on recovery).
  virtual void truncate(const std::string& path, std::uint64_t size) = 0;
  /// Every path under `prefix`, sorted. (Flat namespace: a "directory" is
  /// a path prefix, which is all the journal needs.)
  [[nodiscard]] virtual std::vector<std::string> list(
      const std::string& prefix) const = 0;
  /// fsync of the directory: namespace changes under `prefix` become
  /// durable.
  virtual void sync_dir(const std::string& prefix) = 0;
  /// Creates the directory chain for `dir` (no-op where meaningless).
  virtual void make_dirs(const std::string& dir) = 0;

  /// Simulated power cut over every path under `prefix` (see TearSpec).
  /// Only MemVfs implements it; on a real filesystem this is a no-op.
  virtual void power_cut(const std::string& prefix,
                         const std::optional<TearSpec>& tear = {}) {
    (void)prefix;
    (void)tear;
  }
};

/// In-memory VFS with power-cut and write-fault injection. Thread-safe:
/// the workload engine drives many instances' journals (disjoint path
/// prefixes) through one shared MemVfs from its worker pool. One mutex
/// guards it; the prefix operations touch only their own range of the
/// ordered maps (see the cost contract above).
class MemVfs final : public Vfs {
 public:
  [[nodiscard]] std::unique_ptr<File> open_append(
      const std::string& path) override;
  [[nodiscard]] std::unique_ptr<File> create(const std::string& path) override;
  [[nodiscard]] std::vector<std::uint8_t> read(
      const std::string& path) const override;
  [[nodiscard]] bool exists(const std::string& path) const override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override;
  void sync_dir(const std::string& prefix) override;
  void make_dirs(const std::string& /*dir*/) override {}

  void power_cut(const std::string& prefix,
                 const std::optional<TearSpec>& tear = {}) override;

  /// The next `n` appends succeed; the one after writes half its bytes and
  /// throws IoError. Pass a negative count to disarm.
  void fail_appends_after(long n) {
    const std::lock_guard<std::mutex> lock(mu_);
    fail_after_ = n;
  }

  /// Total successful File::sync() calls (bench/test accounting).
  [[nodiscard]] std::size_t sync_count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return syncs_;
  }

 private:
  struct Inode {
    std::vector<std::uint8_t> data;
    std::size_t synced = 0;  ///< durable prefix length as of the last sync
  };
  friend class MemFile;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Inode>> live_;
  /// The namespace as of each path's last covering sync_dir(): which name
  /// durably maps to which inode. Content durability lives in the inode.
  std::map<std::string, std::shared_ptr<Inode>> durable_;
  long fail_after_ = -1;
  std::size_t syncs_ = 0;
};

/// Real POSIX files: open/write/fsync/rename plus directory fsync. Paths
/// are ordinary OS paths; callers own the temp-dir hygiene.
class DiskVfs final : public Vfs {
 public:
  [[nodiscard]] std::unique_ptr<File> open_append(
      const std::string& path) override;
  [[nodiscard]] std::unique_ptr<File> create(const std::string& path) override;
  [[nodiscard]] std::vector<std::uint8_t> read(
      const std::string& path) const override;
  [[nodiscard]] bool exists(const std::string& path) const override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override;
  void sync_dir(const std::string& prefix) override;
  void make_dirs(const std::string& dir) override;
};

}  // namespace eba
