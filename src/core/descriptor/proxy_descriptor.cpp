#include "core/descriptor/proxy_descriptor.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "core/descriptor/schemas.h"
#include "core/errors.h"
#include "support/logging.h"
#include "xml/xml_parser.h"

namespace mobivine::core {

// ---------------------------------------------------------------------------
// ProxyDescriptor
// ---------------------------------------------------------------------------

void ProxyDescriptor::AddSyntactic(SyntacticPlane plane) {
  syntactic_.push_back(std::move(plane));
  syntactic_index_.Clear();  // back to linear scans until BuildIndexes()
}

void ProxyDescriptor::AddBinding(BindingPlane plane) {
  bindings_.push_back(std::move(plane));
  binding_index_.Clear();
}

void ProxyDescriptor::BuildIndexes() {
  semantic_.BuildIndex();
  syntactic_index_.Clear();
  for (auto& plane : syntactic_) {
    plane.BuildIndex();
    syntactic_index_.Add(plane.language);
  }
  syntactic_index_.Freeze();
  binding_index_.Clear();
  for (auto& plane : bindings_) {
    plane.BuildIndex();
    binding_index_.Add(plane.platform);
  }
  binding_index_.Freeze();
}

const SyntacticPlane* ProxyDescriptor::FindSyntacticLinear(
    std::string_view language) const {
  for (const auto& plane : syntactic_) {
    if (plane.language == language) return &plane;
  }
  return nullptr;
}

const BindingPlane* ProxyDescriptor::FindBindingLinear(
    std::string_view platform) const {
  for (const auto& plane : bindings_) {
    if (plane.platform == platform) return &plane;
  }
  return nullptr;
}

std::vector<std::string> ProxyDescriptor::Platforms() const {
  std::vector<std::string> out;
  for (const auto& plane : bindings_) out.push_back(plane.platform);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
/// Every ErrorCode's canonical name, "unknown" included.
bool IsKnownErrorCode(std::string_view name) {
  return ErrorCodeFromName(name) != ErrorCode::kUnknown ||
         name == ToString(ErrorCode::kUnknown);
}
}  // namespace

std::vector<std::string> ProxyDescriptor::Validate() const {
  std::vector<std::string> problems;
  const std::string& name = semantic_.interface_name;
  if (name.empty()) problems.push_back("semantic plane has no interface name");
  if (semantic_.methods.empty()) {
    problems.push_back(name + ": semantic plane declares no methods");
  }

  for (const SyntacticPlane& plane : syntactic_) {
    const std::string where = name + "/" + plane.language;
    if (plane.proxy != name) {
      problems.push_back(where + ": syntactic plane names proxy '" +
                         plane.proxy + "'");
    }
    for (const MethodSyntax& method : plane.methods) {
      const MethodSpec* spec = semantic_.FindMethod(method.method);
      if (spec == nullptr) {
        problems.push_back(where + ": method '" + method.method +
                           "' not in semantic plane");
        continue;
      }
      if (method.parameter_types.size() != spec->parameters.size()) {
        problems.push_back(
            where + ": method '" + method.method + "' binds " +
            std::to_string(method.parameter_types.size()) +
            " parameter types, semantic plane declares " +
            std::to_string(spec->parameters.size()));
      }
      if (!spec->callback_name.empty() && method.callback_type.empty()) {
        problems.push_back(where + ": method '" + method.method +
                           "' is missing its callback type");
      }
    }
  }

  for (const BindingPlane& plane : bindings_) {
    const std::string where = name + "/" + plane.platform;
    if (plane.proxy != name) {
      problems.push_back(where + ": binding plane names proxy '" +
                         plane.proxy + "'");
    }
    if (plane.implementation_class.empty()) {
      problems.push_back(where + ": no implementation class");
    }
    if (FindSyntactic(plane.language) == nullptr) {
      problems.push_back(where + ": binds language '" + plane.language +
                         "' but no such syntactic plane exists");
    }
    for (const ExceptionSpec& exception : plane.exceptions) {
      if (!IsKnownErrorCode(exception.mapped_code)) {
        problems.push_back(where + ": exception '" + exception.native_type +
                           "' maps to unknown code '" + exception.mapped_code +
                           "'");
      }
    }
    for (const PropertySpec& property : plane.properties) {
      if (property.required && !property.default_value.empty()) {
        problems.push_back(where + ": property '" + property.name +
                           "' is required but also has a default");
      }
      if (!property.default_value.empty() &&
          !property.allowed_values.empty()) {
        const bool default_allowed =
            std::find(property.allowed_values.begin(),
                      property.allowed_values.end(),
                      property.default_value) != property.allowed_values.end();
        if (!default_allowed) {
          problems.push_back(where + ": property '" + property.name +
                             "' default '" + property.default_value +
                             "' is not among its allowed values");
        }
      }
    }
  }
  return problems;
}

// ---------------------------------------------------------------------------
// DescriptorStore
// ---------------------------------------------------------------------------

void DescriptorStore::AddDocument(const xml::Node& root,
                                  const std::string& origin) {
  finalized_ = false;  // indexes go stale until the next Finalize()
  const xml::Schema* schema = SchemaFor(root);
  if (schema == nullptr) {
    throw std::runtime_error(origin + ": unrecognized descriptor document <" +
                             std::string(root.name()) + ">");
  }
  auto violations = schema->Validate(root);
  if (!violations.empty()) {
    throw std::runtime_error(origin + ": schema '" + schema->name() +
                             "' violations:\n" +
                             xml::FormatViolations(violations));
  }

  if (root.name() == "proxy") {
    SemanticPlane plane = ParseSemantic(root);
    const std::string name = plane.interface_name;
    if (descriptors_.count(name)) {
      throw std::runtime_error(origin + ": duplicate semantic plane for '" +
                               name + "'");
    }
    auto descriptor = std::make_unique<ProxyDescriptor>(std::move(plane));
    // Attach planes that arrived first.
    auto pending = pending_.find(name);
    if (pending != pending_.end()) {
      for (auto& syntactic : pending->second.syntactic) {
        descriptor->AddSyntactic(std::move(syntactic));
      }
      for (auto& binding : pending->second.bindings) {
        descriptor->AddBinding(std::move(binding));
      }
      pending_.erase(pending);
    }
    descriptors_[name] = std::move(descriptor);
  } else if (root.name() == "syntax") {
    SyntacticPlane plane = ParseSyntactic(root);
    auto it = descriptors_.find(plane.proxy);
    if (it != descriptors_.end()) {
      it->second->AddSyntactic(std::move(plane));
    } else {
      pending_[plane.proxy].syntactic.push_back(std::move(plane));
    }
  } else {  // binding
    BindingPlane plane = ParseBinding(root);
    auto it = descriptors_.find(plane.proxy);
    if (it != descriptors_.end()) {
      it->second->AddBinding(std::move(plane));
    } else {
      pending_[plane.proxy].bindings.push_back(std::move(plane));
    }
  }
}

void DescriptorStore::Finalize() {
  finalized_ = false;  // loading again after a prior Finalize()
  if (!pending_.empty()) {
    std::string orphans;
    for (const auto& [name, _] : pending_) orphans += " '" + name + "'";
    throw std::runtime_error(
        "descriptor planes reference proxies with no semantic plane:" +
        orphans);
  }
  std::string report;
  for (const auto& [name, descriptor] : descriptors_) {
    for (const std::string& problem : descriptor->Validate()) {
      report += problem + "\n";
    }
  }
  if (!report.empty()) {
    throw std::runtime_error("descriptor validation failed:\n" + report);
  }
  // Build the invocation fast path: per-plane name indexes plus the
  // store's descriptor array. Interner symbol ids, NameIndex slots, and
  // by_symbol_ positions are all assigned in this one loop, so they
  // coincide and any of them indexes by_symbol_ directly.
  interner_ = support::Interner();
  name_index_.Clear();
  by_symbol_.clear();
  by_symbol_.reserve(descriptors_.size());
  for (const auto& [name, descriptor] : descriptors_) {
    descriptor->BuildIndexes();
    const support::Symbol symbol = interner_.Intern(name);
    if (symbol.id() != by_symbol_.size()) {
      throw std::logic_error("descriptor symbol ids must be dense");
    }
    name_index_.Add(name);
    by_symbol_.push_back(descriptor.get());
  }
  name_index_.Freeze();
  finalized_ = true;
}

namespace {

bool IsXmlFile(std::string_view name) {
  return name.size() > 4 && name.ends_with(".xml");
}

/// Append the *.xml regular files and the subdirectories of `directory`,
/// by name (symlinks are followed).
void ListDirectory(const std::string& directory,
                   std::vector<std::string>& xml_files,
                   std::vector<std::string>& subdirectories) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    throw std::runtime_error((errno == ENOENT
                                  ? "descriptor directory does not exist: "
                                  : "cannot read descriptor directory: ") +
                             directory);
  }
  while (const dirent* entry = ::readdir(dir)) {
    const std::string_view name = entry->d_name;
    if (name == "." || name == "..") continue;
    unsigned char type = entry->d_type;
    if (type == DT_UNKNOWN || type == DT_LNK) {
      struct stat info;
      const std::string path = directory + "/" + entry->d_name;
      if (::stat(path.c_str(), &info) != 0) continue;
      type = S_ISREG(info.st_mode) ? DT_REG
             : S_ISDIR(info.st_mode) ? DT_DIR
                                     : DT_UNKNOWN;
    }
    if (type == DT_REG && IsXmlFile(name)) xml_files.emplace_back(name);
    if (type == DT_DIR) subdirectories.emplace_back(name);
  }
  ::closedir(dir);
}

/// Orders relative paths component by component, the way
/// std::filesystem::path compares: '/' sorts below every other byte.
bool ComponentLess(std::string_view a, std::string_view b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
        auto key = [](char c) {
          return c == '/' ? 0 : static_cast<unsigned char>(c) + 1;
        };
        return key(x) < key(y);
      });
}

/// The contents of `path`, read into `buffer` (reused across files, grown
/// when a file fills it) with one open, one read and one close. The
/// listing admits regular files only, and a regular file reads short only
/// at its end.
std::string_view ReadFile(const std::string& path, std::vector<char>& buffer) {
  constexpr std::size_t kInitialBuffer = 16 * 1024;
  if (buffer.empty()) buffer.resize(kInitialBuffer);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open XML file: " + path);
  std::size_t length = 0;
  while (true) {
    const ssize_t got =
        ::read(fd, buffer.data() + length, buffer.size() - length);
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("cannot read XML file: " + path);
    }
    length += static_cast<std::size_t>(got);
    if (length < buffer.size()) break;
    buffer.resize(buffer.size() * 2);
  }
  ::close(fd);
  return {buffer.data(), length};
}

}  // namespace

DescriptorStore DescriptorStore::LoadDirectory(const std::string& directory) {
  const std::string prefix =
      directory.ends_with('/') ? directory : directory + "/";
  // Relative paths of every document: `directory`'s own *.xml files plus
  // those of each immediate subdirectory.
  std::vector<std::string> files;
  std::vector<std::string> subdirectories;
  ListDirectory(directory, files, subdirectories);
  std::vector<std::string> nested;
  std::vector<std::string> too_deep;  // not loaded
  for (const std::string& subdirectory : subdirectories) {
    nested.clear();
    ListDirectory(prefix + subdirectory, nested, too_deep);
    for (const std::string& name : nested) {
      files.push_back(subdirectory + "/" + name);
    }
  }
  std::sort(files.begin(), files.end(), ComponentLess);

  DescriptorStore store;
  std::string path;
  std::vector<char> buffer;  // reused for every file
  for (const std::string& file : files) {
    path = prefix + file;
    const std::string_view source = ReadFile(path, buffer);
    xml::Document document;
    try {
      document = xml::Parse(source);
    } catch (const xml::ParseError& error) {
      throw std::runtime_error(path + ": " + error.what());
    }
    store.AddDocument(*document.root, path);
  }
  store.Finalize();
  MOBIVINE_LOG_INFO << "loaded " << store.size() << " proxy descriptors from "
                    << directory;
  return store;
}

std::vector<std::string> DescriptorStore::ProxyNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : descriptors_) out.push_back(name);
  return out;
}

}  // namespace mobivine::core
