#include "condor/file_transfer.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <system_error>

#include "util/string_util.hpp"

namespace tdp::condor {

namespace fs = std::filesystem;

Status FileTransfer::copy_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal,
                      "copy " + from + " -> " + to + ": " + ec.message());
  }
  // Preserve executability so transferred tool daemons stay runnable.
  auto perms = fs::status(from, ec).permissions();
  if (!ec) fs::permissions(to, perms, ec);
  return Status::ok();
}

Result<std::string> FileTransfer::stage_in(const std::string& from_dir,
                                           const std::string& filename,
                                           const std::string& to_dir) {
  std::error_code ec;
  fs::create_directories(to_dir, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal, "mkdir " + to_dir + ": " + ec.message());
  }
  fs::path source = fs::path(filename).is_absolute()
                        ? fs::path(filename)
                        : fs::path(from_dir) / filename;
  if (!fs::exists(source, ec)) {
    return make_error(ErrorCode::kNotFound, "input file missing: " + source.string());
  }
  fs::path destination = fs::path(to_dir) / source.filename();
  TDP_RETURN_IF_ERROR(copy_file(source.string(), destination.string()));
  return destination.string();
}

Result<std::vector<std::string>> FileTransfer::stage_out(
    const std::string& from_dir, const std::vector<std::string>& filenames,
    const std::string& to_dir) {
  std::error_code ec;
  fs::create_directories(to_dir, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal, "mkdir " + to_dir + ": " + ec.message());
  }
  std::vector<std::string> copied;
  for (const std::string& filename : filenames) {
    if (filename.empty()) continue;
    fs::path source = fs::path(from_dir) / fs::path(filename).filename();
    if (!fs::exists(source, ec)) continue;  // job did not produce it
    fs::path destination = fs::path(to_dir) / fs::path(filename).filename();
    TDP_RETURN_IF_ERROR(copy_file(source.string(), destination.string()));
    copied.push_back(destination.string());
  }
  return copied;
}

Result<std::string> FileTransfer::make_scratch_dir(const std::string& base,
                                                   const std::string& tag) {
  // The counter is per process; the pid keeps starters in different
  // processes that share one scratch base out of each other's directories.
  static std::atomic<std::uint64_t> counter{0};
  std::error_code ec;
  fs::path dir = fs::path(base) /
                 ("tdp-scratch-" + tag + "-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
  fs::create_directories(dir, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal,
                      "mkdir " + dir.string() + ": " + ec.message());
  }
  return dir.string();
}

Status FileTransfer::remove_dir(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return make_error(ErrorCode::kInvalidArgument,
                      "refusing to remove non-absolute path: " + path);
  }
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal, "rm -r " + path + ": " + ec.message());
  }
  return Status::ok();
}

}  // namespace tdp::condor
