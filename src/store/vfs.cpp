#include "store/vfs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/assert.hpp"

namespace eba {

// -- MemVfs ------------------------------------------------------------------

/// Handle over a MemVfs inode. The handle holds the inode, not the name:
/// like a POSIX fd, it survives renames and keeps writing to the same
/// storage. Fault injection lives in the owning MemVfs so one counter
/// spans all open files.
class MemFile final : public File {
 public:
  MemFile(MemVfs* vfs, std::shared_ptr<MemVfs::Inode> inode)
      : vfs_(vfs), inode_(std::move(inode)) {}

  void append(const std::uint8_t* data, std::size_t len) override {
    const std::lock_guard<std::mutex> lock(vfs_->mu_);
    if (vfs_->fail_after_ >= 0) {
      if (vfs_->fail_after_ == 0) {
        // A failed write is not atomic: half the buffer lands before the
        // error surfaces, exactly the garbage recovery must cope with.
        inode_->data.insert(inode_->data.end(), data, data + len / 2);
        vfs_->fail_after_ = -1;
        throw IoError("injected write failure");
      }
      vfs_->fail_after_ -= 1;
    }
    inode_->data.insert(inode_->data.end(), data, data + len);
  }

  void sync() override {
    const std::lock_guard<std::mutex> lock(vfs_->mu_);
    inode_->synced = inode_->data.size();
    vfs_->syncs_ += 1;
  }

  [[nodiscard]] std::uint64_t size() const override {
    const std::lock_guard<std::mutex> lock(vfs_->mu_);
    return inode_->data.size();
  }

 private:
  MemVfs* vfs_;
  std::shared_ptr<MemVfs::Inode> inode_;
};

std::unique_ptr<File> MemVfs::open_append(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(path);
  if (it == live_.end())
    it = live_.emplace(path, std::make_shared<Inode>()).first;
  return std::make_unique<MemFile>(this, it->second);
}

std::unique_ptr<File> MemVfs::create(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto inode = std::make_shared<Inode>();
  live_[path] = inode;
  return std::make_unique<MemFile>(this, std::move(inode));
}

std::vector<std::uint8_t> MemVfs::read(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(path);
  if (it == live_.end()) throw IoError("no such file: " + path);
  return it->second->data;
}

bool MemVfs::exists(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return live_.count(path) != 0;
}

void MemVfs::rename(const std::string& from, const std::string& to) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(from);
  if (it == live_.end()) throw IoError("rename source missing: " + from);
  if (from == to) return;  // POSIX: renaming a file onto itself is a no-op
  live_[to] = it->second;
  live_.erase(it);
}

void MemVfs::remove(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  live_.erase(path);
}

void MemVfs::truncate(const std::string& path, std::uint64_t size) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(path);
  if (it == live_.end()) throw IoError("truncate target missing: " + path);
  Inode& inode = *it->second;
  if (size > inode.data.size())
    throw IoError("truncate cannot extend: " + path);
  inode.data.resize(static_cast<std::size_t>(size));
  inode.synced = std::min(inode.synced, inode.data.size());
}

namespace {

/// The entries of an ordered path map whose key starts with `prefix`. They
/// are contiguous and begin at lower_bound(prefix), so finding them costs
/// O(log N + entries under the prefix), whatever else the map holds.
template <class Map>
auto prefix_range(Map& paths, const std::string& prefix) {
  const auto first = paths.lower_bound(prefix);
  auto last = first;
  while (last != paths.end() &&
         last->first.compare(0, prefix.size(), prefix) == 0)
    ++last;
  return std::pair{first, last};
}

}  // namespace

std::vector<std::string> MemVfs::list(const std::string& prefix) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [first, last] = prefix_range(live_, prefix);
  std::vector<std::string> out;
  for (auto it = first; it != last; ++it) out.push_back(it->first);
  return out;
}

void MemVfs::sync_dir(const std::string& prefix) {
  const std::lock_guard<std::mutex> lock(mu_);
  // The namespace under `prefix` becomes durable: durable names are
  // replaced by the live names. File CONTENT durability is per-inode and
  // unchanged — a name committed by the dir fsync still only keeps the
  // bytes its own fsync covered.
  const auto [d_first, d_last] = prefix_range(durable_, prefix);
  const auto next = durable_.erase(d_first, d_last);
  const auto [l_first, l_last] = prefix_range(live_, prefix);
  for (auto it = l_first; it != l_last; ++it)
    durable_.emplace_hint(next, it->first, it->second);
}

void MemVfs::power_cut(const std::string& prefix,
                       const std::optional<TearSpec>& tear) {
  const std::lock_guard<std::mutex> lock(mu_);
  EBA_REQUIRE(!tear || tear->path.compare(0, prefix.size(), prefix) == 0,
              "torn file lies outside the power-cut prefix");
  // 1. The live namespace under `prefix` reverts to the durable one:
  //    unsynced creations vanish, unsynced renames/removes roll back.
  const auto [l_first, l_last] = prefix_range(live_, prefix);
  const auto next = live_.erase(l_first, l_last);
  const auto [first, last] = prefix_range(durable_, prefix);
  for (auto it = first; it != last; ++it)
    live_.emplace_hint(next, it->first, it->second);

  // 2. Every surviving file's content reverts to its synced prefix —
  //    except the torn file, which keeps `keep` extra bytes of its
  //    unsynced tail (and optionally a corrupted final byte). The
  //    survivors are exactly the durable names under `prefix`.
  for (auto it = first; it != last; ++it) {
    Inode& inode = *it->second;
    std::size_t survive = inode.synced;
    const bool torn = tear && tear->path == it->first;
    if (torn) survive = std::min(inode.synced + tear->keep, inode.data.size());
    inode.data.resize(survive);
    inode.synced = std::min(inode.synced, survive);
    if (torn && tear->corrupt && survive > inode.synced)
      inode.data[survive - 1] ^= 0x5A;
  }
}

// -- DiskVfs -----------------------------------------------------------------

namespace {

class DiskFile final : public File {
 public:
  explicit DiskFile(int fd) : fd_(fd) {}
  ~DiskFile() override {
    if (fd_ >= 0) ::close(fd_);
  }
  DiskFile(const DiskFile&) = delete;
  DiskFile& operator=(const DiskFile&) = delete;

  void append(const std::uint8_t* data, std::size_t len) override {
    while (len > 0) {
      const ssize_t wrote = ::write(fd_, data, len);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        throw IoError(std::string("write: ") + std::strerror(errno));
      }
      data += wrote;
      len -= static_cast<std::size_t>(wrote);
    }
  }

  void sync() override {
    if (::fsync(fd_) != 0)
      throw IoError(std::string("fsync: ") + std::strerror(errno));
  }

  [[nodiscard]] std::uint64_t size() const override {
    struct ::stat st{};
    if (::fstat(fd_, &st) != 0)
      throw IoError(std::string("fstat: ") + std::strerror(errno));
    return static_cast<std::uint64_t>(st.st_size);
  }

 private:
  int fd_;
};

int open_or_throw(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0)
    throw IoError("open " + path + ": " + std::strerror(errno));
  return fd;
}

}  // namespace

std::unique_ptr<File> DiskVfs::open_append(const std::string& path) {
  return std::make_unique<DiskFile>(
      open_or_throw(path, O_WRONLY | O_CREAT | O_APPEND));
}

std::unique_ptr<File> DiskVfs::create(const std::string& path) {
  return std::make_unique<DiskFile>(
      open_or_throw(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND));
}

std::vector<std::uint8_t> DiskVfs::read(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("open " + path + ": " + std::strerror(errno));
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw IoError(std::string("read: ") + std::strerror(errno));
    }
    if (got == 0) break;
    out.insert(out.end(), buf, buf + got);
  }
  ::close(fd);
  return out;
}

bool DiskVfs::exists(const std::string& path) const {
  return std::filesystem::exists(path);
}

void DiskVfs::rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0)
    throw IoError("rename " + from + ": " + std::strerror(errno));
}

void DiskVfs::remove(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) throw IoError("remove " + path + ": " + ec.message());
}

void DiskVfs::truncate(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
    throw IoError("truncate " + path + ": " + std::strerror(errno));
}

std::vector<std::string> DiskVfs::list(const std::string& prefix) const {
  // A prefix is "<dir>/<name-prefix>"; scan the directory component.
  const std::size_t slash = prefix.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : prefix.substr(0, slash);
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void DiskVfs::sync_dir(const std::string& prefix) {
  const std::size_t slash = prefix.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : prefix.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0)
    throw IoError("open dir " + dir + ": " + std::strerror(errno));
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw IoError(std::string("fsync dir: ") + std::strerror(errno));
  }
  ::close(fd);
}

void DiskVfs::make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw IoError("mkdir " + dir + ": " + ec.message());
}

}  // namespace eba
