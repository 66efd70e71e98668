#include "workload/tree.hpp"

#include <cstdio>

namespace cpa::workload {

std::uint64_t tree_file_tag(std::uint64_t tag_seed, std::uint64_t index) {
  std::uint64_t x = tag_seed ^ (index * 0x9E3779B97F4A7C15ULL + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string tree_file_path(const TreeSpec& spec, std::uint64_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%04llu/f%06llu",
                static_cast<unsigned long long>(index / spec.files_per_dir),
                static_cast<unsigned long long>(index));
  return pfs::join_path(spec.root, buf);
}

TreeReport build_tree(pfs::FileSystem& fs, const TreeSpec& spec) {
  TreeReport report;
  fs.mkdirs(spec.root);
  const std::uint64_t n = spec.file_sizes.size();
  report.dirs = (n + spec.files_per_dir - 1) / spec.files_per_dir;
  for (std::uint64_t i = 0; i < n; ++i) {
    // The first file of each directory makes the directory too.
    if (fs.make_file(tree_file_path(spec, i), spec.file_sizes[i],
                     tree_file_tag(spec.tag_seed, i)) != pfs::Errc::Ok) {
      continue;
    }
    ++report.files;
    report.bytes += spec.file_sizes[i];
  }
  return report;
}

}  // namespace cpa::workload
