// The Ethernet Speaker's ramdisk root filesystem (§2.4). The paper's design:
// the kernel image embeds a ramdisk holding everything common to all ESs
// (programs, skeleton /etc, the boot server's ssh public key); each
// machine's own configuration arrives later as a tar file "expanded over
// the skeleton /etc directory, thus the machine-specific information
// overwrites the common configuration".
#ifndef SRC_BOOT_RAMDISK_H_
#define SRC_BOOT_RAMDISK_H_

#include <map>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/boot/tar.h"

namespace espk {

class RamdiskFs {
 public:
  RamdiskFs() = default;
  explicit RamdiskFs(FileMap files) : files_(std::move(files)) {}

  void WriteFile(const std::string& path, Bytes contents);
  void WriteTextFile(const std::string& path, const std::string& text);
  Result<Bytes> ReadFile(const std::string& path) const;
  Result<std::string> ReadTextFile(const std::string& path) const;
  bool Exists(const std::string& path) const;
  std::vector<std::string> List(const std::string& prefix) const;

  // Expands a config tar over this filesystem: existing files are
  // overwritten (machine-specific beats skeleton).
  Status OverlayTar(const Bytes& tar_archive);

  const FileMap& files() const { return files_; }

 private:
  FileMap files_;
};

// The ramdisk kernel image the boot server serves: a version tag plus the
// embedded root filesystem, serialized for (simulated) TFTP transfer.
struct RamdiskImage {
  uint32_t version = 1;
  FileMap root_fs;

  Bytes Serialize() const;
  static Result<RamdiskImage> Deserialize(const Bytes& wire);
};

// Builds the standard ES ramdisk: init scripts, the espk tools, skeleton
// /etc with defaults, and the boot server's public-key fingerprint (so the
// config fetch can be authenticated, as the paper stores ssh keys).
RamdiskImage BuildStandardEsImage(const Bytes& boot_server_key_fingerprint);

// Parses "key=value" lines (comments with '#', blank lines ignored) — the
// format of /etc/espk.conf.
std::map<std::string, std::string> ParseConfigFile(const std::string& text);

}  // namespace espk

#endif  // SRC_BOOT_RAMDISK_H_
