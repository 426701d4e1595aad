// Durable storage engine suite (src/store/): the fault-injecting VFS, the
// torn-write-safe journal, keyed digests, file-backed traces, and run-log
// recovery.
//
// The adversary here is the power cut. Every test drives real injected
// faults through MemVfs — tears at every byte offset of the final page,
// cuts at every fsync boundary, failed writes at every position — and
// demands the contract the engine documents: recovery either returns a
// verified prefix of what was appended (never losing a synced record,
// never inventing one) or rejects with a typed DecodeError. Silent wrong
// records and UB are the only losing moves.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "action/p_min.hpp"
#include "audit/certificate.hpp"
#include "audit/digest.hpp"
#include "audit/trace_file.hpp"
#include "failure/generators.hpp"
#include "net/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "store/file_trace.hpp"
#include "store/journal.hpp"
#include "store/run_log.hpp"
#include "store/vfs.hpp"

namespace eba {
namespace {

using Kind = DecodeError::Kind;

Bytes bytes_of(std::initializer_list<int> vals) {
  Bytes out;
  for (int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// A small deterministic payload, distinct per index.
Bytes payload_for(int k, std::size_t len = 20) {
  Bytes out(len);
  for (std::size_t i = 0; i < len; ++i)
    out[i] = static_cast<std::uint8_t>((k * 37 + static_cast<int>(i)) & 0xFF);
  return out;
}

void expect_prefix_of(const std::vector<JournalRecord>& got,
                      const std::vector<Bytes>& appended,
                      const std::string& what) {
  ASSERT_LE(got.size(), appended.size()) << what << ": invented records";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, i + 1) << what;
    EXPECT_EQ(got[i].payload, appended[i]) << what << " record " << i;
  }
}

// -- MemVfs ------------------------------------------------------------------

TEST(MemVfsTest, SyncedPrefixSurvivesPowerCutUnsyncedTailVanishes) {
  MemVfs vfs;
  auto f = vfs.create("d/f");
  f->append(bytes_of({1, 2, 3}));
  f->sync();
  vfs.sync_dir("d/");
  f->append(bytes_of({4, 5}));
  EXPECT_EQ(f->size(), 5u);

  vfs.power_cut("d/");
  EXPECT_EQ(vfs.read("d/f"), bytes_of({1, 2, 3}));
  // The surviving handle keeps writing to the same inode.
  f->append(bytes_of({9}));
  EXPECT_EQ(vfs.read("d/f"), bytes_of({1, 2, 3, 9}));
}

TEST(MemVfsTest, NamespaceChangesNeedDirectorySync) {
  MemVfs vfs;
  {
    auto f = vfs.create("d/a");
    f->append(bytes_of({1}));
    f->sync();  // content durable, name not
  }
  vfs.power_cut("d/");
  EXPECT_FALSE(vfs.exists("d/a")) << "creation without sync_dir survived";

  {
    auto f = vfs.create("d/a");
    f->append(bytes_of({1}));
    f->sync();
  }
  vfs.sync_dir("d/");
  {
    auto f = vfs.create("d/b");
    f->append(bytes_of({2}));
    f->sync();
    vfs.rename("d/b", "d/a");  // atomic replace, but no sync_dir
  }
  vfs.power_cut("d/");
  EXPECT_EQ(vfs.read("d/a"), bytes_of({1})) << "unsynced rename survived";

  {
    auto f = vfs.create("d/c");
    f->append(bytes_of({3}));
    f->sync();
    vfs.rename("d/c", "d/a");
  }
  vfs.sync_dir("d/");
  vfs.power_cut("d/");
  EXPECT_EQ(vfs.read("d/a"), bytes_of({3})) << "synced rename lost";
  EXPECT_FALSE(vfs.exists("d/c"));
}

TEST(MemVfsTest, TearSpecKeepsPartOfTheTailAndCanCorruptIt) {
  for (bool corrupt : {false, true}) {
    MemVfs vfs;
    auto f = vfs.create("d/f");
    f->append(bytes_of({1, 2}));
    f->sync();
    vfs.sync_dir("d/");
    f->append(bytes_of({3, 4, 5, 6}));

    TearSpec tear;
    tear.path = "d/f";
    tear.keep = 2;
    tear.corrupt = corrupt;
    vfs.power_cut("d/", tear);
    const Bytes after = vfs.read("d/f");
    ASSERT_EQ(after.size(), 4u);
    EXPECT_EQ(after[0], 1);
    EXPECT_EQ(after[1], 2);
    EXPECT_EQ(after[2], 3);
    EXPECT_EQ(after[3], corrupt ? (4 ^ 0x5A) : 4);
  }
}

TEST(MemVfsTest, PowerCutPrefixDoesNotSwallowSiblingDirectories) {
  // "root/inst-3/" must not match "root/inst-30/..." — the per-instance
  // logs the workload engine cuts are disambiguated by the trailing slash.
  MemVfs vfs;
  for (const char* dir : {"root/inst-3/", "root/inst-30/"}) {
    auto f = vfs.create(std::string(dir) + "f");
    f->append(bytes_of({7}));
    f->sync();
    vfs.sync_dir(dir);
    f->append(bytes_of({8}));
  }
  vfs.power_cut("root/inst-3/");
  EXPECT_EQ(vfs.read("root/inst-3/f"), bytes_of({7}));
  EXPECT_EQ(vfs.read("root/inst-30/f"), bytes_of({7, 8}))
      << "sibling directory was cut";
}

TEST(MemVfsTest, InjectedWriteFailureIsPartialAndTyped) {
  MemVfs vfs;
  auto f = vfs.create("d/f");
  vfs.fail_appends_after(1);
  f->append(bytes_of({1, 2}));  // survives
  EXPECT_THROW(f->append(bytes_of({3, 4, 5, 6})), IoError);
  // Half the failed buffer landed: the garbage recovery must cope with.
  EXPECT_EQ(vfs.read("d/f"), bytes_of({1, 2, 3, 4}));
  // The fault disarms after firing once.
  f->append(bytes_of({9}));
  EXPECT_EQ(f->size(), 5u);
}

TEST(MemVfsTest, PrefixOpsTouchOnlyTheirOwnDirectory) {
  // Neighbours of "a/1/" on every side of the ordered map: the bare file
  // "a/1" and "a/0/" sort before it, "a/10/" and "a/2/" after. Each holds
  // synced bytes, an unsynced tail, and an unsynced creation, so a cut that
  // strays drops a tail and a directory sync that strays commits a name.
  const std::vector<std::string> neighbours = {"a/0/f", "a/1", "a/10/f",
                                               "a/2/f"};
  const std::vector<std::string> all = {"a/0/f", "a/1", "a/1/f", "a/10/f",
                                        "a/2/f"};
  const auto populate = [&](MemVfs& vfs) {
    for (const std::string& path : all) {
      auto f = vfs.create(path);
      f->append(bytes_of({1, 2}));
      f->sync();
    }
    vfs.sync_dir("a/");
    for (const std::string& path : all) {
      auto f = vfs.open_append(path);
      f->append(bytes_of({3}));
      auto g = vfs.create(path + ".new");  // name not yet durable
      g->append(bytes_of({4}));
      g->sync();
    }
  };
  // Live view, then (after a full power cut) durable view, of one path.
  const auto snapshot = [](MemVfs& vfs, const std::string& path) {
    return vfs.exists(path) ? vfs.read(path) : Bytes{0xEE};
  };

  for (const bool cut : {true, false}) {
    SCOPED_TRACE(cut ? "power_cut" : "sync_dir");
    MemVfs touched;
    MemVfs untouched;
    populate(touched);
    populate(untouched);
    if (cut)
      touched.power_cut("a/1/");
    else
      touched.sync_dir("a/1/");

    const std::vector<std::string> own =
        cut ? std::vector<std::string>{"a/1/f"}
            : std::vector<std::string>{"a/1/f", "a/1/f.new"};
    EXPECT_EQ(touched.list("a/1/"), own) << "list strayed outside its directory";
    for (const std::string& path : neighbours)
      for (const std::string& name : {path, path + ".new"})
        EXPECT_EQ(snapshot(touched, name), snapshot(untouched, name))
            << name << " changed in the live view";
    // The op did act inside "a/1/": the cut dropped the tail and the
    // creation, the directory sync made the creation durable.
    EXPECT_EQ(touched.read("a/1/f"),
              cut ? bytes_of({1, 2}) : bytes_of({1, 2, 3}));

    touched.power_cut("");
    untouched.power_cut("");
    for (const std::string& path : neighbours)
      for (const std::string& name : {path, path + ".new"})
        EXPECT_EQ(snapshot(touched, name), snapshot(untouched, name))
            << name << " changed in the durable view";
    EXPECT_EQ(touched.exists("a/1/f.new"), !cut);
    EXPECT_FALSE(untouched.exists("a/1/f.new"));
    // The empty prefix covers everything: no unsynced byte or name left.
    for (const std::string& path : touched.list(""))
      EXPECT_EQ(touched.read(path).size(), path.ends_with(".new") ? 1u : 2u)
          << path;
  }
}

TEST(MemVfsTest, TearOutsideTheCutPrefixIsRefused) {
  // A sweep whose TearSpec names a file the cut does not cover would tear
  // nothing and pass vacuously; the VFS refuses it instead, untouched.
  MemVfs vfs;
  for (const char* path : {"d/f", "e/f"}) {
    auto f = vfs.create(path);
    f->append(bytes_of({1}));
    f->sync();
    f->append(bytes_of({2}));
  }
  vfs.sync_dir("");
  TearSpec tear;
  tear.path = "e/f";
  tear.keep = 1;
  EXPECT_THROW(vfs.power_cut("d/", tear), std::logic_error);
  EXPECT_EQ(vfs.read("d/f"), bytes_of({1, 2}));
  EXPECT_EQ(vfs.read("e/f"), bytes_of({1, 2}));
  tear.path = "d/f";
  vfs.power_cut("d/", tear);
  EXPECT_EQ(vfs.read("d/f"), bytes_of({1, 2}));
}

/// rename(p, p) must leave p in place, as POSIX rename (and so DiskVfs)
/// does. `root` is the directory the files go under.
void expect_self_rename_is_a_noop(Vfs& vfs, const std::string& root) {
  const std::string path = root + "/a";
  {
    auto f = vfs.create(path);
    f->append(bytes_of({5, 6}));
    f->sync();
  }
  vfs.sync_dir(root + "/");
  vfs.rename(path, path);
  ASSERT_TRUE(vfs.exists(path)) << "self-rename deleted the file";
  EXPECT_EQ(vfs.read(path), bytes_of({5, 6}));
  EXPECT_EQ(vfs.list(root + "/"), std::vector<std::string>{path});
  EXPECT_THROW(vfs.rename(root + "/missing", root + "/missing"), IoError);
}

TEST(MemVfsTest, SelfRenameIsANoOp) {
  MemVfs vfs;
  expect_self_rename_is_a_noop(vfs, "d");
  vfs.power_cut("d/");
  EXPECT_EQ(vfs.read("d/a"), bytes_of({5, 6}));
}

TEST(DiskVfsTest, SelfRenameIsANoOp) {
  char tmpl[] = "/tmp/eba_store_test_XXXXXX";
  char* dir_c = ::mkdtemp(tmpl);
  ASSERT_NE(dir_c, nullptr);
  DiskVfs vfs;
  expect_self_rename_is_a_noop(vfs, dir_c);
  std::filesystem::remove_all(dir_c);
}

/// MemVfs's namespace semantics written the slow, obvious way: every prefix
/// operation scans every path. The differential test below runs MemVfs and
/// this model through the same random operations and demands the same
/// observable state after each one.
class ScanModelVfs {
 public:
  struct Inode {
    Bytes data;
    std::size_t synced = 0;
  };
  using Handle = std::shared_ptr<Inode>;

  Handle create(const std::string& path) {
    return live_[path] = std::make_shared<Inode>();
  }
  Handle open_append(const std::string& path) {
    Handle& slot = live_[path];
    if (!slot) slot = std::make_shared<Inode>();
    return slot;
  }
  /// False when `from` does not exist.
  bool rename(const std::string& from, const std::string& to) {
    const auto it = live_.find(from);
    if (it == live_.end()) return false;
    const Handle inode = it->second;
    live_.erase(it);
    live_[to] = inode;
    return true;
  }
  void remove(const std::string& path) { live_.erase(path); }
  [[nodiscard]] const Inode* find(const std::string& path) const {
    const auto it = live_.find(path);
    return it == live_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] std::vector<std::string> list(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& [path, inode] : live_)
      if (under(path, prefix)) out.push_back(path);
    return out;
  }
  void sync_dir(const std::string& prefix) {
    std::erase_if(durable_, [&](const auto& e) { return under(e.first, prefix); });
    for (const auto& [path, inode] : live_)
      if (under(path, prefix)) durable_[path] = inode;
  }
  void power_cut(const std::string& prefix, const std::optional<TearSpec>& tear) {
    std::erase_if(live_, [&](const auto& e) { return under(e.first, prefix); });
    for (const auto& [path, inode] : durable_)
      if (under(path, prefix)) live_[path] = inode;
    for (const auto& [path, inode] : live_) {
      if (!under(path, prefix)) continue;
      std::size_t survive = inode->synced;
      const bool torn = tear && tear->path == path;
      if (torn)
        survive = std::min(inode->synced + tear->keep, inode->data.size());
      inode->data.resize(survive);
      inode->synced = std::min(inode->synced, survive);
      if (torn && tear->corrupt && survive > inode->synced)
        inode->data[survive - 1] ^= 0x5A;
    }
  }

 private:
  static bool under(const std::string& path, const std::string& prefix) {
    return path.compare(0, prefix.size(), prefix) == 0;
  }
  std::map<std::string, Handle> live_;
  std::map<std::string, Handle> durable_;
};

TEST(MemVfsTest, RandomOpsMatchAFullScanModel) {
  // Paths and prefixes chosen to sit next to each other in the ordered
  // map: a range that ends one key early or runs one key past its prefix
  // diverges from the model within a few operations.
  const std::vector<std::string> paths = {"a",      "a/1",    "a/1/x",
                                          "a/1/y",  "a/10/x", "a/2/x",
                                          "a/0/x",  "b/x",    "b/y/z"};
  const std::vector<std::string> prefixes = {"",     "a",     "a/",
                                             "a/1",  "a/1/",  "a/10/",
                                             "a/2/", "b/",    "c/"};
  const auto pick = [](Rng& rng, const std::vector<std::string>& from) {
    return from[static_cast<std::size_t>(
        rng.below(static_cast<int>(from.size())))];
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    MemVfs vfs;
    ScanModelVfs model;
    std::vector<std::unique_ptr<File>> files;
    std::vector<ScanModelVfs::Handle> handles;
    for (int step = 0; step < 250; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const std::string path = pick(rng, paths);
      const std::string prefix = pick(rng, prefixes);
      const auto k = files.empty()
                         ? 0
                         : static_cast<std::size_t>(
                               rng.below(static_cast<int>(files.size())));
      switch (rng.below(9)) {
        case 0:
          files.push_back(vfs.create(path));
          handles.push_back(model.create(path));
          break;
        case 1:
          files.push_back(vfs.open_append(path));
          handles.push_back(model.open_append(path));
          break;
        case 2:
          if (files.empty()) break;
          {
            Bytes b(static_cast<std::size_t>(1 + rng.below(5)));
            for (std::uint8_t& byte : b)
              byte = static_cast<std::uint8_t>(rng.below(256));
            files[k]->append(b);
            handles[k]->data.insert(handles[k]->data.end(), b.begin(),
                                    b.end());
          }
          break;
        case 3:
          if (files.empty()) break;
          files[k]->sync();
          handles[k]->synced = handles[k]->data.size();
          break;
        case 4: {
          const std::string to = pick(rng, paths);
          bool threw = false;
          try {
            vfs.rename(path, to);
          } catch (const IoError&) {
            threw = true;
          }
          ASSERT_EQ(threw, !model.rename(path, to));
          break;
        }
        case 5:
          vfs.remove(path);
          model.remove(path);
          break;
        case 6:
          vfs.sync_dir(prefix);
          model.sync_dir(prefix);
          break;
        case 7: {
          std::optional<TearSpec> tear;
          if (path.starts_with(prefix) && rng.chance(0.5)) {
            tear = TearSpec{path, static_cast<std::size_t>(rng.below(4)),
                            rng.chance(0.5)};
          }
          vfs.power_cut(prefix, tear);
          model.power_cut(prefix, tear);
          break;
        }
        default:
          ASSERT_EQ(vfs.list(prefix), model.list(prefix)) << prefix;
          break;
      }
      ASSERT_EQ(vfs.list(""), model.list(""));
      for (const std::string& p : paths) {
        const ScanModelVfs::Inode* inode = model.find(p);
        ASSERT_EQ(vfs.exists(p), inode != nullptr) << p;
        if (inode) {
          ASSERT_EQ(vfs.read(p), inode->data) << p;
        }
      }
      for (std::size_t h = 0; h < files.size(); ++h)
        ASSERT_EQ(files[h]->size(), handles[h]->data.size()) << "handle " << h;
    }
  }
}

// -- Keyed digests -----------------------------------------------------------

TEST(KeyedDigestTest, KeyZeroIsBitIdenticalToPlainDigest) {
  Digest64 plain;
  KeyedDigest64 keyed(0);
  for (int i = 0; i < 16; ++i) {
    plain.u8(static_cast<std::uint8_t>(i));
    keyed.u8(static_cast<std::uint8_t>(i));
    plain.u64(0x1234567890ABCDEFull * static_cast<unsigned>(i + 1));
    keyed.u64(0x1234567890ABCDEFull * static_cast<unsigned>(i + 1));
  }
  EXPECT_EQ(keyed.value(), plain.value());
  EXPECT_EQ(KeyedDigest64::chain(0, 1, 2, 3), Digest64::chain(1, 2, 3));
}

TEST(KeyedDigestTest, DifferentKeysSeparateAndKeyCheckDiscriminates) {
  const auto digest_under = [](std::uint64_t key) {
    KeyedDigest64 d(key);
    d.u64(0xDEADBEEFull);
    return d.value();
  };
  EXPECT_NE(digest_under(1), digest_under(2));
  EXPECT_NE(digest_under(1), digest_under(0));
  EXPECT_NE(KeyedDigest64::key_check_word(1), KeyedDigest64::key_check_word(2));
  EXPECT_EQ(KeyedDigest64::key_check_word(7), KeyedDigest64::key_check_word(7));
}

// -- Journal: plain roundtrips -----------------------------------------------

TEST(JournalTest, RoundtripAcrossReopenPreservesEveryRecord) {
  MemVfs vfs;
  std::vector<Bytes> appended;
  {
    Journal j = Journal::create(vfs, "jl");
    for (int k = 0; k < 5; ++k) {
      appended.push_back(payload_for(k));
      EXPECT_EQ(j.append(static_cast<std::uint8_t>(1 + k % 3), appended.back()),
                static_cast<std::uint64_t>(k + 1));
    }
    j.sync();
    EXPECT_EQ(j.last_seq(), 5u);
    EXPECT_TRUE(j.records().empty()) << "appends must not echo into records()";
  }
  Journal j = Journal::open(vfs, "jl");
  ASSERT_EQ(j.records().size(), 5u);
  expect_prefix_of(j.records(), appended, "reopen");
  EXPECT_EQ(j.records()[2].kind, 3);
  EXPECT_EQ(j.last_seq(), 5u);
  // And the reopened journal continues the sequence.
  EXPECT_EQ(j.append(1, payload_for(5)), 6u);
}

TEST(JournalTest, SegmentsRollAndGcDropsOnlyDeadSealedSegments) {
  MemVfs vfs;
  JournalOptions opt;
  opt.page_size = 64;
  opt.segment_bytes = 64;  // every record fills a segment: rolls constantly
  std::vector<Bytes> appended;
  Journal j = Journal::create(vfs, "jl", opt);
  for (int k = 0; k < 6; ++k) {
    appended.push_back(payload_for(k));
    j.append(1, appended.back());
  }
  j.sync();
  EXPECT_GE(j.segment_count(), 5u);

  // GC below seq 4: segments holding only records 1..3 go, the rest stay.
  j.gc(4);
  EXPECT_LT(j.segment_count(), 6u);
  {
    Journal back = Journal::open(vfs, "jl", opt);
    ASSERT_EQ(back.records().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(back.records()[i].seq, i + 4);
      EXPECT_EQ(back.records()[i].payload, appended[i + 3]);
    }
    EXPECT_EQ(back.last_seq(), 6u);
  }
  // GC is crash-safe: a cut right after it still opens cleanly.
  vfs.power_cut("jl/");
  Journal again = Journal::open(vfs, "jl", opt);
  EXPECT_EQ(again.records().size(), 3u);
}

TEST(JournalTest, OpenWithoutManifestIsTyped) {
  MemVfs vfs;
  try {
    (void)Journal::open(vfs, "nowhere");
    FAIL() << "open on an empty directory succeeded";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), Kind::missing_frame);
  }
}

TEST(JournalTest, OversizePayloadRefused) {
  MemVfs vfs;
  Journal j = Journal::create(vfs, "jl");
  EXPECT_THROW((void)j.append(1, Bytes((1u << 28) + 1)), IoError);
}

// -- Journal: power-cut fault injection --------------------------------------

/// Builds a journal with `synced` records made durable and `unsynced` more
/// buffered but not fsynced, returning everything appended.
std::vector<Bytes> build_journal(MemVfs& vfs, const JournalOptions& opt,
                                 int synced, int unsynced) {
  std::vector<Bytes> appended;
  Journal j = Journal::create(vfs, "jl", opt);
  for (int k = 0; k < synced; ++k) {
    appended.push_back(payload_for(k));
    j.append(1, appended.back());
  }
  j.sync();
  for (int k = 0; k < unsynced; ++k) {
    appended.push_back(payload_for(synced + k));
    j.append(1, appended.back());
  }
  return appended;
}

TEST(JournalTest, TornWriteSweepEveryByteOffsetOfTheFinalPage) {
  // Two durable records, one buffered record, then a power cut that tears
  // the unsynced tail at EVERY byte offset — with and without a corrupted
  // final byte. Whatever survives, open() must hand back a verified prefix
  // (never fewer than the 2 durable records, never a wrong byte), stay
  // idempotent across reopen, and accept further appends.
  JournalOptions opt;
  opt.page_size = 64;
  const std::size_t tail_pages = 64;  // the buffered record occupies 1 page

  for (std::size_t keep = 0; keep <= tail_pages; ++keep) {
    for (bool corrupt : {false, true}) {
      const std::string what = "keep " + std::to_string(keep) +
                               (corrupt ? " corrupt" : " clean");
      MemVfs vfs;
      const std::vector<Bytes> appended = build_journal(vfs, opt, 2, 1);

      TearSpec tear;
      tear.path = "jl/seg-000001";
      tear.keep = keep;
      tear.corrupt = corrupt;
      vfs.power_cut("jl/", tear);

      std::vector<Bytes> recovered;
      {
        Journal j = Journal::open(vfs, "jl", opt);
        expect_prefix_of(j.records(), appended, what);
        ASSERT_GE(j.records().size(), 2u) << what << ": durable record lost";
        for (const JournalRecord& r : j.records())
          recovered.push_back(r.payload);
      }
      {
        // Idempotent: recovery must not chew further on a second open.
        Journal j = Journal::open(vfs, "jl", opt);
        ASSERT_EQ(j.records().size(), recovered.size()) << what;

        // And the repaired journal keeps working.
        const Bytes extra = payload_for(99);
        j.append(2, extra);
        j.sync();
        Journal back = Journal::open(vfs, "jl", opt);
        ASSERT_EQ(back.records().size(), recovered.size() + 1) << what;
        EXPECT_EQ(back.records().back().payload, extra) << what;
        EXPECT_EQ(back.records().back().kind, 2) << what;
      }
    }
  }
}

TEST(JournalTest, PowerCutAtEveryFsyncBoundary) {
  // K records, fsync after each; cut the power with only the first `cut`
  // syncs issued. Exactly the synced records survive — none lost, none
  // resurrected.
  constexpr int kRecords = 8;
  JournalOptions opt;
  opt.page_size = 64;
  for (int cut = 0; cut <= kRecords; ++cut) {
    MemVfs vfs;
    std::vector<Bytes> appended;
    {
      Journal j = Journal::create(vfs, "jl", opt);
      for (int k = 0; k < kRecords; ++k) {
        appended.push_back(payload_for(k));
        j.append(1, appended.back());
        if (k < cut) j.sync();
      }
    }
    vfs.power_cut("jl/");
    Journal j = Journal::open(vfs, "jl", opt);
    ASSERT_EQ(j.records().size(), static_cast<std::size_t>(cut))
        << "cut after sync " << cut;
    expect_prefix_of(j.records(), appended, "cut " + std::to_string(cut));
  }
}

TEST(JournalTest, PowerCutStormAcrossSegmentRolls) {
  // Small segments force rolls (which sync the old segment and commit a new
  // manifest); a cut at any point must keep at least everything explicitly
  // synced and still open cleanly.
  JournalOptions opt;
  opt.page_size = 64;
  opt.segment_bytes = 128;
  for (int synced = 0; synced <= 6; ++synced) {
    MemVfs vfs;
    std::vector<Bytes> appended;
    {
      Journal j = Journal::create(vfs, "jl", opt);
      for (int k = 0; k < 6; ++k) {
        appended.push_back(payload_for(k));
        j.append(1, appended.back());
        if (k < synced) j.sync();
      }
    }
    vfs.power_cut("jl/");
    Journal j = Journal::open(vfs, "jl", opt);
    ASSERT_GE(j.records().size(), static_cast<std::size_t>(synced))
        << "synced " << synced << ": durable record lost";
    expect_prefix_of(j.records(), appended, "synced " + std::to_string(synced));
  }
}

TEST(JournalTest, FailedNthAppendLeavesARecoverableJournal) {
  // The Nth OS-level write fails after landing half its bytes. The journal
  // surfaces the IoError; a power cut + reopen then recovers a verified
  // prefix and the journal accepts appends again.
  JournalOptions opt;
  opt.page_size = 64;
  opt.segment_bytes = 256;
  for (long fail_at = 0; fail_at < 8; ++fail_at) {
    MemVfs vfs;
    std::vector<Bytes> appended;
    bool io_failed = false;
    {
      Journal j = Journal::create(vfs, "jl", opt);
      vfs.fail_appends_after(fail_at);
      for (int k = 0; k < 12 && !io_failed; ++k) {
        try {
          appended.push_back(payload_for(k));
          j.append(1, appended.back());
          j.sync();
        } catch (const IoError&) {
          appended.pop_back();  // the failed record never fully landed
          io_failed = true;
        }
      }
    }
    ASSERT_TRUE(io_failed) << "fault at " << fail_at << " never fired";
    vfs.fail_appends_after(-1);
    vfs.power_cut("jl/");
    Journal j = Journal::open(vfs, "jl", opt);
    expect_prefix_of(j.records(), appended, "fail at " + std::to_string(fail_at));
    const std::size_t recovered = j.records().size();
    j.append(1, payload_for(77));
    j.sync();
    Journal back = Journal::open(vfs, "jl", opt);
    EXPECT_EQ(back.records().size(), recovered + 1)
        << "fail at " << fail_at << ": journal unusable after recovery";
  }
}

// -- Journal: keyed authentication -------------------------------------------

TEST(JournalTest, WrongKeyRejectedAsKeyMismatch) {
  MemVfs vfs;
  JournalOptions keyed;
  keyed.key = 0xFEEDFACEull;
  {
    Journal j = Journal::create(vfs, "jl", keyed);
    j.append(1, payload_for(0));
    j.sync();
  }
  ASSERT_EQ(Journal::open(vfs, "jl", keyed).records().size(), 1u);

  for (std::uint64_t wrong : {0ull, 7ull}) {
    JournalOptions bad = keyed;
    bad.key = wrong;
    try {
      (void)Journal::open(vfs, "jl", bad);
      FAIL() << "key " << wrong << " accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), Kind::key_mismatch) << "key " << wrong;
    }
  }

  // And the other direction: a key against an unkeyed journal.
  MemVfs vfs2;
  { (void)Journal::create(vfs2, "jl"); }
  JournalOptions with_key;
  with_key.key = 5;
  try {
    (void)Journal::open(vfs2, "jl", with_key);
    FAIL() << "unkeyed journal accepted a key";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), Kind::key_mismatch);
  }
}

TEST(JournalTest, SealedSegmentCorruptionIsAHardTypedError) {
  // Damage inside a sealed (non-final) segment is corruption of committed
  // records — silently dropping them would violate durability, so open()
  // must refuse with a typed error instead of "recovering".
  MemVfs vfs;
  JournalOptions opt;
  opt.page_size = 64;
  opt.segment_bytes = 64;  // every record rolls: first segments are sealed
  {
    Journal j = Journal::create(vfs, "jl", opt);
    for (int k = 0; k < 3; ++k) j.append(1, payload_for(k));
    j.sync();
  }
  Bytes sealed = vfs.read("jl/seg-000001");
  ASSERT_FALSE(sealed.empty());
  sealed[10] ^= 0x40;  // flip a payload bit: CRC must catch it
  {
    auto f = vfs.create("jl/seg-000001");
    f->append(sealed);
    f->sync();
  }
  vfs.sync_dir("jl/");
  EXPECT_THROW((void)Journal::open(vfs, "jl", opt), DecodeError);
}

// -- Keyed traces and certificates -------------------------------------------

Run<MinExchange> small_run(int n = 4, int t = 1, std::uint64_t seed = 11) {
  Rng rng(seed);
  return simulate(MinExchange(n), PMin(n, t),
                  sample_adversary(n, t, t + 2, 0.35, rng),
                  sample_preferences(n, rng), t);
}

TEST(KeyedTraceTest, KeyedRoundtripVerifiesAndMismatchesAreTyped) {
  const auto run = small_run();
  const std::uint64_t key = 0x5EC2E7ull;
  const Bytes keyed = write_trace(run.record, 9, key);
  const Bytes unkeyed = write_trace(run.record, 9);
  EXPECT_NE(keyed, unkeyed);

  const TraceFile parsed = read_trace(keyed, key);
  EXPECT_EQ(parsed.version, kTraceFormatVersionKeyed);
  EXPECT_EQ(parsed.record, run.record);
  EXPECT_TRUE(replay_verify(keyed, key).ok);

  const auto expect_key_mismatch = [](const Bytes& bytes, std::uint64_t k,
                                      const std::string& what) {
    try {
      (void)read_trace(bytes, k);
      FAIL() << what;
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), Kind::key_mismatch) << what;
    }
  };
  expect_key_mismatch(keyed, 0, "keyed trace read without a key");
  expect_key_mismatch(keyed, key + 1, "keyed trace read with the wrong key");
  expect_key_mismatch(unkeyed, key, "unkeyed trace read with a key");
  EXPECT_FALSE(replay_verify(keyed, key + 1).ok);
  EXPECT_FALSE(replay_verify(keyed).parsed);
}

TEST(KeyedTraceTest, KeyedTraceRejectsTruncationAndBitFlips) {
  const auto run = small_run(4, 1, 13);
  const std::uint64_t key = 77;
  const Bytes trace = write_trace(run.record, 1, key);
  for (std::size_t cut = 0; cut < trace.size(); ++cut) {
    Bytes buf(trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(replay_verify(buf, key).parsed) << "cut " << cut;
  }
  for (std::size_t at = 0; at < trace.size(); ++at) {
    Bytes buf = trace;
    buf[at] ^= 1;
    EXPECT_FALSE(replay_verify(buf, key).ok) << "flip at " << at;
  }
}

TEST(KeyedCertificateTest, WrongKeyFailsVerificationBothWays) {
  const auto run = small_run(5, 2, 17);
  const std::uint64_t key = 0xA11CEull;
  const DecisionCertificate cert = build_certificate(run.record, 3, key);
  EXPECT_TRUE(verify_certificate(cert, run.record, key).ok);
  EXPECT_FALSE(verify_certificate(cert, run.record).ok)
      << "keyed certificate verified without the key";
  EXPECT_FALSE(verify_certificate(cert, run.record, key + 1).ok);
  const DecisionCertificate plain = build_certificate(run.record, 3);
  EXPECT_FALSE(verify_certificate(plain, run.record, key).ok)
      << "unkeyed certificate verified under a key";
  // Key 0 reproduces the historical unkeyed digests bit-for-bit.
  EXPECT_EQ(plain, build_certificate(run.record, 3, 0));
}

// -- File-backed traces ------------------------------------------------------

TEST(FileTraceTest, OnDiskBytesPinnedToInMemoryWriter) {
  const auto run = small_run(5, 2, 19);
  const RunRecord& rec = run.record;
  MemVfs vfs;
  FileTraceWriter w(vfs, "t/trace.ebtr", 42, rec.n, rec.t, rec.nonfaulty,
                    rec.inits);
  for (int m = 0; m < rec.rounds; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    w.add_round(rec.actions[um], rec.sent[um], rec.delivered[um]);
  }
  const Bytes out = w.finish(build_certificate(rec, 42));
  EXPECT_EQ(out, write_trace(rec, 42)) << "streamed != one-shot";
  EXPECT_EQ(vfs.read("t/trace.ebtr"), out) << "disk bytes diverge";
  // finish() fsyncs: the complete trace survives a power cut. (The name
  // itself needs the caller's sync_dir, so sync it first.)
  vfs.sync_dir("t/");
  vfs.power_cut("t/");
  EXPECT_EQ(vfs.read("t/trace.ebtr"), out);
  EXPECT_TRUE(replay_verify(vfs.read("t/trace.ebtr")).ok);
}

TEST(FileTraceTest, WriterCrashLeavesADetectablePrefix) {
  const auto run = small_run(4, 1, 23);
  const RunRecord& rec = run.record;
  MemVfs vfs;
  FileTraceWriter w(vfs, "t/trace.ebtr", 1, rec.n, rec.t, rec.nonfaulty,
                    rec.inits);
  w.add_record_rounds(rec);
  // No finish(): the writer "crashed". The on-disk prefix parses as an
  // unterminated container — a typed rejection, not an accepted trace.
  const Bytes partial = vfs.read("t/trace.ebtr");
  ASSERT_FALSE(partial.empty());
  try {
    (void)read_trace(partial);
    FAIL() << "unterminated streamed trace accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), Kind::missing_frame);
  }
}

TEST(FileTraceTest, KeyedStreamingMatchesKeyedOneShot) {
  const auto run = small_run(4, 1, 29);
  const RunRecord& rec = run.record;
  const std::uint64_t key = 0xBEE5ull;
  MemVfs vfs;
  FileTraceWriter w(vfs, "t/k.ebtr", 7, rec.n, rec.t, rec.nonfaulty, rec.inits,
                    key);
  w.add_record_rounds(rec);
  const Bytes out = w.finish(build_certificate(rec, 7, key));
  EXPECT_EQ(out, write_trace(rec, 7, key));
  EXPECT_TRUE(replay_verify(vfs.read("t/k.ebtr"), key).ok);
}

// -- DiskVfs -----------------------------------------------------------------

TEST(DiskVfsTest, JournalRoundtripOnTheRealFilesystem) {
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/eba_store_test_XXXXXX";
  char* dir_c = ::mkdtemp(tmpl);
  ASSERT_NE(dir_c, nullptr);
  const std::string dir = std::string(dir_c) + "/jl";

  DiskVfs vfs;
  std::vector<Bytes> appended;
  {
    JournalOptions opt;
    opt.page_size = 512;
    Journal j = Journal::create(vfs, dir, opt);
    for (int k = 0; k < 4; ++k) {
      appended.push_back(payload_for(k, 100));
      j.append(1, appended.back());
    }
    j.sync();
    j.gc(1);  // exercises manifest rewrite + directory fsync on disk
  }
  {
    JournalOptions opt;
    opt.page_size = 512;
    Journal j = Journal::open(vfs, dir, opt);
    expect_prefix_of(j.records(), appended, "disk");
    ASSERT_EQ(j.records().size(), 4u);
    appended.push_back(payload_for(9, 100));
    j.append(2, appended.back());
    j.sync();
  }
  // Simulated torn tail on a real file: truncate into the final record's
  // body, reopen — the four older records survive, the torn one is gone.
  const std::string seg = dir + "/seg-000001";
  vfs.truncate(seg, vfs.read(seg).size() - 450);
  {
    JournalOptions opt;
    opt.page_size = 512;
    Journal j = Journal::open(vfs, dir, opt);
    expect_prefix_of(j.records(), appended, "disk torn");
    ASSERT_EQ(j.records().size(), 4u);
  }
  fs::remove_all(dir_c);
}

// -- Run-log recovery --------------------------------------------------------

/// Drives a PMin instance round by round while writing the exact journal
/// the workload engine would: intent before the round, delta after it.
struct DurableRunFixture {
  MemVfs vfs;
  RunRecord want;
  FailurePattern alpha{1, AgentSet{0}};
  std::vector<Value> inits;
  int n = 5, t = 2;
  MinExchange x{5};
  PMin p{5, 2};

  DurableRunFixture() {
    // Deterministically pick a seed whose run lasts >= 4 rounds, so every
    // test has room to crash mid-run.
    for (std::uint64_t seed = 31;; ++seed) {
      Rng rng(seed);
      alpha = sample_adversary(n, t, t + 2, 0.4, rng);
      inits = sample_preferences(n, rng);
      want = simulate(x, p, alpha, inits, t).record;
      if (want.rounds >= 4) break;
    }
  }

  IntentPayload intent_for(int m) const {
    IntentPayload intent;
    intent.round = m;
    intent.actions = want.actions[static_cast<std::size_t>(m)];
    for (AgentId i = 0; i < n; ++i) {
      intent.dropped_send.push_back(alpha.dropped(m, i));
      intent.dropped_receive.push_back(alpha.dropped_receive(m, i));
    }
    return intent;
  }

  /// Journal: checkpoint at time 0, `completed` full rounds (intent +
  /// delta), then one trailing intent — the mid-round crash shape.
  RunLog build_log(int completed, bool trailing_intent) {
    RunLog log = RunLog::create(vfs, "rl");
    Stepper<MinExchange, PMin> stepper(x, p, alpha, inits, t);
    log.log_checkpoint(checkpoint_stepper(stepper));
    for (int m = 0; m < completed; ++m) {
      log.log_intent(intent_for(m));
      EXPECT_TRUE(stepper.step()) << "fixture run shorter than expected";
      log.log_delta(delta_of_record(stepper.record(), m));
    }
    if (trailing_intent) log.log_intent(intent_for(completed));
    return log;
  }
};

TEST(RunLogTest, MidRoundRecoveryCompletesTheIntentRound) {
  DurableRunFixture fx;
  ASSERT_GE(fx.want.rounds, 3);
  const int crash_round = 2;  // crash while round 3 (m=2) is staged
  { RunLog log = fx.build_log(crash_round, /*trailing_intent=*/true); }

  fx.vfs.power_cut("rl/");
  RunLog log = RunLog::open(fx.vfs, "rl");
  auto recovered = recover_run<MinExchange, PMin>(
      fx.x, fx.p, log.journal().records());
  EXPECT_TRUE(recovered.finished_intent);
  EXPECT_EQ(recovered.replayed_rounds, crash_round + 1);
  EXPECT_EQ(recovered.stepper.time(), crash_round + 1);

  // The caller's contract: re-log the recovered round, then continue.
  log.log_delta(
      delta_of_record(recovered.stepper.record(), recovered.stepper.time() - 1));
  while (recovered.stepper.step()) {
  }
  EXPECT_EQ(recovered.stepper.record(), fx.want)
      << "recovered run diverges from the uninterrupted one";
}

TEST(RunLogTest, RecoverySurvivesASecondCrash) {
  DurableRunFixture fx;
  ASSERT_GE(fx.want.rounds, 3);
  { RunLog log = fx.build_log(1, /*trailing_intent=*/true); }
  fx.vfs.power_cut("rl/");
  {
    RunLog log = RunLog::open(fx.vfs, "rl");
    auto recovered = recover_run<MinExchange, PMin>(
        fx.x, fx.p, log.journal().records());
    ASSERT_TRUE(recovered.finished_intent);
    log.log_delta(delta_of_record(recovered.stepper.record(),
                                  recovered.stepper.time() - 1));
    log.log_intent(fx.intent_for(2));  // next round staged... crash again
  }
  fx.vfs.power_cut("rl/");
  RunLog log = RunLog::open(fx.vfs, "rl");
  auto recovered = recover_run<MinExchange, PMin>(
      fx.x, fx.p, log.journal().records());
  EXPECT_TRUE(recovered.finished_intent);
  EXPECT_EQ(recovered.stepper.time(), 3);
  while (recovered.stepper.step()) {
  }
  EXPECT_EQ(recovered.stepper.record(), fx.want);
}

TEST(RunLogTest, DivergentDeltaAndForgedIntentRejected) {
  DurableRunFixture fx;
  ASSERT_GE(fx.want.rounds, 2);
  {
    // A delta whose actions were edited: replay must refuse to return it.
    RunLog log = RunLog::create(fx.vfs, "bad1");
    Stepper<MinExchange, PMin> stepper(fx.x, fx.p, fx.alpha, fx.inits, fx.t);
    log.log_checkpoint(checkpoint_stepper(stepper));
    ASSERT_TRUE(stepper.step());
    DeltaView delta = delta_of_record(stepper.record(), 0);
    // Forge agent 0's logged action: the replayed round cannot realize it.
    std::vector<Action> forged(delta.actions.begin(), delta.actions.end());
    forged[0] = forged[0].is_decide() ? Action::noop()
                                      : Action::decide(Value::zero);
    delta.actions = forged;
    log.log_delta(delta);
  }
  {
    RunLog log = RunLog::open(fx.vfs, "bad1");
    try {
      (void)recover_run<MinExchange, PMin>(fx.x, fx.p,
                                           log.journal().records());
      FAIL() << "divergent delta accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), Kind::malformed);
    }
  }
  {
    // A trailing intent whose drop rows were forged: the re-run's realized
    // drops cannot match, so recovery must throw, not fabricate a round.
    RunLog log = RunLog::create(fx.vfs, "bad2");
    Stepper<MinExchange, PMin> stepper(fx.x, fx.p, fx.alpha, fx.inits, fx.t);
    log.log_checkpoint(checkpoint_stepper(stepper));
    IntentPayload intent = fx.intent_for(0);
    AgentSet& row = intent.dropped_send[1];
    if (row.contains(0))
      row.erase(0);
    else
      row.insert(0);
    log.log_intent(intent);
  }
  RunLog log = RunLog::open(fx.vfs, "bad2");
  try {
    (void)recover_run<MinExchange, PMin>(fx.x, fx.p,
                                         log.journal().records());
    FAIL() << "forged intent accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), Kind::malformed);
  }
}

TEST(RunLogTest, GcKeepsRecoverabilityFromTheNewestCheckpoints) {
  DurableRunFixture fx;
  JournalOptions opt;
  opt.page_size = 64;
  opt.segment_bytes = 64;  // aggressive rolls so GC has segments to drop
  {
    RunLog log = RunLog::create(fx.vfs, "rl", opt);
    Stepper<MinExchange, PMin> stepper(fx.x, fx.p, fx.alpha, fx.inits, fx.t);
    log.log_checkpoint(checkpoint_stepper(stepper));
    while (stepper.step()) {
      const int m = stepper.time() - 1;
      log.log_intent(fx.intent_for(m));
      log.log_delta(delta_of_record(stepper.record(), m));
      log.log_checkpoint(checkpoint_stepper(stepper));
      log.gc_keep_checkpoints(2);
    }
  }
  fx.vfs.power_cut("rl/");
  RunLog log = RunLog::open(fx.vfs, "rl", opt);
  auto recovered = recover_run<MinExchange, PMin>(
      fx.x, fx.p, log.journal().records());
  EXPECT_EQ(recovered.stepper.time(), fx.want.rounds)
      << "GC'd log no longer recovers to the durable edge";
  while (recovered.stepper.step()) {
  }
  EXPECT_EQ(recovered.stepper.record(), fx.want);
}

}  // namespace
}  // namespace eba
