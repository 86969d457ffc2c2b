// A complete M-Proxy descriptor: one semantic plane refined by per-language
// syntactic planes and per-platform binding planes, plus the store that
// loads a directory of descriptor documents (the data behind the M-Plugin's
// Proxy Drawer).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/descriptor/planes.h"
#include "support/interner.h"
#include "support/name_index.h"

namespace mobivine::core {

class ProxyDescriptor {
 public:
  explicit ProxyDescriptor(SemanticPlane semantic)
      : semantic_(std::move(semantic)) {}

  const SemanticPlane& semantic() const { return semantic_; }
  const std::string& name() const { return semantic_.interface_name; }

  void AddSyntactic(SyntacticPlane plane);
  void AddBinding(BindingPlane plane);

  const std::vector<SyntacticPlane>& syntactic_planes() const {
    return syntactic_;
  }
  const std::vector<BindingPlane>& binding_planes() const { return bindings_; }

  [[nodiscard]] const SyntacticPlane* FindSyntactic(
      std::string_view language) const;
  [[nodiscard]] const BindingPlane* FindBinding(std::string_view platform) const;
  /// Linear-scan variants, kept public so tests can assert the indexed
  /// lookups agree with a straight scan.
  [[nodiscard]] const SyntacticPlane* FindSyntacticLinear(
      std::string_view language) const;
  [[nodiscard]] const BindingPlane* FindBindingLinear(
      std::string_view platform) const;

  /// Build the per-plane and per-descriptor lookup indexes. Called by
  /// DescriptorStore::Finalize(); planes must not be added afterwards
  /// (AddSyntactic/AddBinding drop the indexes back to linear scans).
  void BuildIndexes();

  /// True when the interface is implemented on the platform (the Call
  /// proxy has no S60 binding, per the paper).
  [[nodiscard]] bool SupportsPlatform(std::string_view platform) const {
    return FindBinding(platform) != nullptr;
  }
  [[nodiscard]] std::vector<std::string> Platforms() const;

  /// Cross-plane consistency: every syntactic/binding plane names this
  /// proxy; syntactic methods exist in the semantic plane with matching
  /// parameter counts; binding exception codes are valid ErrorCode names.
  /// Returns human-readable problems (empty = consistent).
  [[nodiscard]] std::vector<std::string> Validate() const;

 private:
  SemanticPlane semantic_;
  std::vector<SyntacticPlane> syntactic_;
  std::vector<BindingPlane> bindings_;
  support::NameIndex syntactic_index_;  // language -> plane slot
  support::NameIndex binding_index_;    // platform -> plane slot
};

/// Loads and owns a set of proxy descriptors.
class DescriptorStore {
 public:
  /// Load the *.xml files in `directory` and in each of its immediate
  /// subdirectories (one per proxy, e.g. descriptors/location/semantic.xml);
  /// deeper directories and other files are ignored, and symlinks are
  /// followed. Documents load in path order, compared component by
  /// component, so the result does not depend on directory listing order.
  /// Each document is validated against its schema. A missing directory,
  /// an unreadable file, a malformed document ("<file>: XML parse error at
  /// <line>:<column>: ..."), schema violations or cross-plane
  /// inconsistencies throw std::runtime_error with a full report.
  static DescriptorStore LoadDirectory(const std::string& directory);

  /// Assemble from in-memory XML documents (tests).
  void AddDocument(const xml::Node& root, const std::string& origin);
  /// Run cross-plane validation on everything added; throws on problems.
  void Finalize();

  /// O(1) after Finalize() (NameIndex probe -> dense array, slots shared
  /// with the per-store interner's symbol ids); falls back to the ordered
  /// map while documents are still loading.
  [[nodiscard]] const ProxyDescriptor* Find(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> ProxyNames() const;
  std::size_t size() const { return descriptors_.size(); }

 private:
  struct Pending {
    std::vector<SyntacticPlane> syntactic;
    std::vector<BindingPlane> bindings;
  };

  // std::less<> so the pre-Finalize Find fallback can probe with a
  // string_view without materializing a key.
  std::map<std::string, std::unique_ptr<ProxyDescriptor>, std::less<>>
      descriptors_;
  std::map<std::string, Pending> pending_;  // planes seen before semantic
  /// Built by Finalize(): interner symbol ids, NameIndex slots, and
  /// by_symbol_ positions all coincide (dense, in finalize order).
  support::Interner interner_;
  support::NameIndex name_index_;
  std::vector<const ProxyDescriptor*> by_symbol_;
  bool finalized_ = false;
};

// ---------------------------------------------------------------------------
// Lookup fast paths, inline for the same reason as the plane Finds (see
// planes.h): the whole resolution chain should compile down to index
// probes. Linear fallbacks live in proxy_descriptor.cpp.
// ---------------------------------------------------------------------------

inline const SyntacticPlane* ProxyDescriptor::FindSyntactic(
    std::string_view language) const {
  if (syntactic_index_.built()) {
    const std::uint32_t slot = syntactic_index_.Lookup(language);
    return slot == support::NameIndex::npos ? nullptr : &syntactic_[slot];
  }
  return FindSyntacticLinear(language);
}

inline const BindingPlane* ProxyDescriptor::FindBinding(
    std::string_view platform) const {
  if (binding_index_.built()) {
    const std::uint32_t slot = binding_index_.Lookup(platform);
    return slot == support::NameIndex::npos ? nullptr : &bindings_[slot];
  }
  return FindBindingLinear(platform);
}

inline const ProxyDescriptor* DescriptorStore::Find(
    std::string_view name) const {
  if (finalized_) {
    const std::uint32_t slot = name_index_.Lookup(name);
    return slot == support::NameIndex::npos ? nullptr : by_symbol_[slot];
  }
  auto it = descriptors_.find(name);
  return it == descriptors_.end() ? nullptr : it->second.get();
}

}  // namespace mobivine::core
