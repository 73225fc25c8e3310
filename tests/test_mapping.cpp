#include "model/mapping.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "support/strings.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

using testing::ev;

// f-hat of Eq. 4: the paper's worked example.
TEST(Mapping, CallTopDirsPaperExample) {
  const auto f = Mapping::call_top_dirs(2);
  const auto a = f(ev("read", "/usr/lib/x86_64-linux-gnu/libselinux.so.1", 0, 1, 832));
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, "read\n/usr/lib");
}

TEST(Mapping, CallTopDirsShortPathUnchanged) {
  const auto f = Mapping::call_top_dirs(2);
  EXPECT_EQ(*f(ev("read", "/proc/filesystems", 0, 1, 478)), "read\n/proc/filesystems");
  EXPECT_EQ(*f(ev("write", "/dev/pts/7", 0, 1, 50)), "write\n/dev/pts");
}

TEST(Mapping, CallLastComponentsFig4Style) {
  const auto f = Mapping::call_last_components(2);
  EXPECT_EQ(*f(ev("read", "/usr/lib/x86_64-linux-gnu/libc.so.6", 0, 1, 832)),
            "read\nx86_64-linux-gnu/libc.so.6");
}

TEST(Mapping, CallOnly) {
  const auto f = Mapping::call_only();
  EXPECT_EQ(*f(ev("pwrite64", "/p/scratch/ssf/test", 0, 1, 100)), "pwrite64");
}

TEST(Mapping, FilteredFpIsPartial) {
  const auto f = Mapping::call_top_dirs(2).filtered_fp("/usr/lib");
  EXPECT_TRUE(f(ev("read", "/usr/lib/a/b", 0, 1)));
  EXPECT_FALSE(f(ev("read", "/etc/passwd", 0, 1)));
}

TEST(Mapping, FilteredPredicate) {
  const auto f = Mapping::call_only().filtered("reads-only", [](const Event& e) {
    return e.call == "read";
  });
  EXPECT_TRUE(f(ev("read", "/x", 0, 1)));
  EXPECT_FALSE(f(ev("write", "/x", 0, 1)));
}

TEST(Mapping, DefaultConstructedIsInvalid) {
  const Mapping f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f(ev("read", "/x", 0, 1)));
}

TEST(Mapping, CustomMapping) {
  const auto f = Mapping::custom("sized", [](const Event& e) -> std::optional<Activity> {
    if (!e.has_size()) return std::nullopt;
    return std::string(e.call) + ":" + std::to_string(e.size);
  });
  EXPECT_EQ(*f(ev("read", "/x", 0, 1, 832)), "read:832");
  EXPECT_FALSE(f(ev("lseek", "/x", 0, 1, -1)));
}

// ---- SitePathMap (f-bar) ------------------------------------------------

TEST(SitePathMap, JuwelsLikePrefixes) {
  const auto map = SitePathMap::juwels_like();
  EXPECT_EQ(map.abstract("/p/scratch/ssf/test"), "$SCRATCH");
  EXPECT_EQ(map.abstract("/p/home/user/.bashrc"), "$HOME");
  EXPECT_EQ(map.abstract("/p/software/mpi/lib/libmpi.so"), "$SOFTWARE");
  EXPECT_EQ(map.abstract("/dev/shm/seg0"), "Node Local");
  EXPECT_EQ(map.abstract("/usr/lib/libc.so"), "Node Local");
}

TEST(SitePathMap, LongestPrefixWins) {
  SitePathMap map("OTHER");
  map.add_prefix("/p", "$P");
  map.add_prefix("/p/scratch", "$SCRATCH");
  EXPECT_EQ(map.abstract("/p/scratch/x"), "$SCRATCH");
  EXPECT_EQ(map.abstract("/p/home/x"), "$P");
}

TEST(SitePathMap, MatchExposesRemainder) {
  const auto map = SitePathMap::juwels_like();
  const auto m = map.match("/p/scratch/ssf/test");
  EXPECT_TRUE(m.matched);
  EXPECT_EQ(m.label, "$SCRATCH");
  EXPECT_EQ(m.remainder, "/ssf/test");
}

TEST(SitePathMap, NoMatchUsesDefault) {
  const auto m = SitePathMap::juwels_like().match("/etc/passwd");
  EXPECT_FALSE(m.matched);
  EXPECT_EQ(m.label, "Node Local");
}

TEST(Mapping, CallSiteCollapsed) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 0);
  EXPECT_EQ(*f(ev("write", "/p/scratch/ssf/test", 0, 1, 100)), "write\n$SCRATCH");
  EXPECT_EQ(*f(ev("openat", "/dev/shm/seg", 0, 1)), "openat\nNode Local");
}

TEST(Mapping, CallSiteOneExtraLevelDistinguishesSsfFpp) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 1);
  EXPECT_EQ(*f(ev("write", "/p/scratch/ssf/test", 0, 1, 100)), "write\n$SCRATCH/ssf");
  EXPECT_EQ(*f(ev("write", "/p/scratch/fpp/test.00000001", 0, 1, 100)),
            "write\n$SCRATCH/fpp");
}

TEST(Mapping, CallSiteExtraLevelsNeverApplyToDefaultLabel) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 2);
  EXPECT_EQ(*f(ev("read", "/usr/lib/x/libc.so", 0, 1, 8)), "read\nNode Local");
}

TEST(Mapping, CallSiteExtraLevelsClampedToAvailableComponents) {
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 5);
  EXPECT_EQ(*f(ev("read", "/p/scratch/ssf/test", 0, 1, 8)), "read\n$SCRATCH/ssf/test");
}

// ---- the one-allocation built-ins against the original formulas ----------

namespace reference {

// The path helpers and the call_site label as they were before the
// built-in mappings moved to append_top_dirs / append_last_components:
// each built its part as a separate string, joined as
// std::string(call) + "\n" + part.

std::string top_dirs(std::string_view path, int levels) {
  if (path.empty() || path.front() != '/' || levels <= 0) return std::string(path);
  std::size_t seen = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') {
      ++seen;
      if (seen == static_cast<std::size_t>(levels)) return std::string(path.substr(0, i));
    }
  }
  return std::string(path);
}

std::string last_components(std::string_view path, int n) {
  if (n <= 0) return std::string{};
  const auto parts = split(path, '/');
  std::vector<std::string_view> keep;
  for (const auto& p : parts) {
    if (!p.empty()) keep.push_back(p);
  }
  if (keep.size() > static_cast<std::size_t>(n)) {
    keep.erase(keep.begin(), keep.end() - n);
  }
  return join(keep, "/");
}

std::string site_label(const SitePathMap& map, std::string_view fp, int extra_levels) {
  const auto m = map.match(fp);
  std::string label = m.label;
  if (extra_levels > 0 && m.matched) {
    std::string_view rest = m.remainder;
    int taken = 0;
    std::size_t pos = 0;
    while (taken < extra_levels && pos < rest.size()) {
      while (pos < rest.size() && rest[pos] == '/') ++pos;
      if (pos >= rest.size()) break;
      std::size_t end = rest.find('/', pos);
      if (end == std::string_view::npos) end = rest.size();
      label += "/";
      label += rest.substr(pos, end - pos);
      pos = end;
      ++taken;
    }
  }
  return label;
}

}  // namespace reference

TEST(Mapping, BuiltinsEqualTheOriginalFormulas) {
  const std::vector<std::string> paths = {
      "/usr/lib/x86_64-linux-gnu/libc.so.6", "//p//scratch///ssf/test.0", "/p/scratch/ssf/",
      "/p/scratch", "/p/scratchy/x", "/p/home/u/.bashrc", "/p/software/a/b/c/d/e/f",
      "relative/path/x", "rel", "", "/", "///", "a//b/", "/dev/shm/f",
      "/a_component_name_far_longer_than_any_small_string_buffer/b/c"};
  const std::vector<std::string> calls = {"read", "pwrite64", "a_syscall_name_longer_than_sso"};
  const auto site = SitePathMap::juwels_like();
  for (const auto& call : calls) {
    for (const auto& fp : paths) {
      const Event e = ev(call, fp, 0, 1);
      const std::string head = call + "\n";
      SCOPED_TRACE(call + " " + fp);
      for (int k = 0; k <= 6; ++k) {
        EXPECT_EQ(*Mapping::call_top_dirs(k)(e), head + reference::top_dirs(fp, k)) << k;
        EXPECT_EQ(*Mapping::call_last_components(k)(e), head + reference::last_components(fp, k))
            << k;
        EXPECT_EQ(top_dirs(fp, k), reference::top_dirs(fp, k)) << k;
        EXPECT_EQ(last_components(fp, k), reference::last_components(fp, k)) << k;
        EXPECT_EQ(*Mapping::call_site(site, k)(e), head + reference::site_label(site, fp, k)) << k;
      }
      EXPECT_EQ(*Mapping::call_only()(e), call);
    }
  }
}

TEST(Mapping, NamesAreDescriptive) {
  EXPECT_EQ(Mapping::call_top_dirs(2).name(), "call_top_dirs(2)");
  EXPECT_NE(Mapping::call_top_dirs(2).filtered_fp("/usr").name().find("fp~/usr"),
            std::string::npos);
}

}  // namespace
}  // namespace st::model
