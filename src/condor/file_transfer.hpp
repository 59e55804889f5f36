// file_transfer.hpp - staging of job files between submit and execution
// directories, MiniCondor's stand-in for Condor's file-transfer mechanism
// (and the paper's "Tool daemon configuration and data files" requirement:
// "the RT may need configuration files transferred to the execution nodes
// ... trace files must be transferred from the execution nodes after the
// application completes").
#pragma once

#include <string>
#include <vector>

#include "util/status.hpp"

namespace tdp::condor {

class FileTransfer {
 public:
  /// Copies `filename` (relative to `from_dir`, or absolute) into `to_dir`
  /// keeping its base name. Creates `to_dir` if missing. Returns the
  /// destination path.
  static Result<std::string> stage_in(const std::string& from_dir,
                                      const std::string& filename,
                                      const std::string& to_dir);

  /// Copies each file back; missing sources are skipped (a job need not
  /// produce every declared output). Returns the list actually copied.
  static Result<std::vector<std::string>> stage_out(
      const std::string& from_dir, const std::vector<std::string>& filenames,
      const std::string& to_dir);

  /// Creates a fresh scratch directory under `base`, named
  /// tdp-scratch-<tag>-<pid>-<counter> so it is unique across processes.
  static Result<std::string> make_scratch_dir(const std::string& base,
                                              const std::string& tag);

  /// Recursively removes a scratch directory (refuses non-absolute paths).
  static Status remove_dir(const std::string& path);

  /// Raw file copy helper (binary-safe, preserves execute permission).
  static Status copy_file(const std::string& from, const std::string& to);
};

}  // namespace tdp::condor
