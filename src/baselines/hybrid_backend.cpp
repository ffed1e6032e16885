#include "baselines/hybrid_backend.hpp"

#include "core/response.hpp"

namespace hxrc::baselines {

core::PartitionAnnotations HybridBackend::annotations_of(const core::Partition& partition) {
  core::PartitionAnnotations annotations;
  annotations.convention = partition.convention();
  for (const core::AttributeRootInfo& root : partition.attribute_roots()) {
    annotations.attributes.push_back(
        core::AttributeAnnotation{root.path, root.dynamic, root.queryable});
  }
  return annotations;
}

HybridBackend::HybridBackend(const core::Partition& partition)
    : catalog_(partition.schema(), annotations_of(partition),
               core::CatalogConfig{
                   .shred = core::ShredOptions{.auto_define_dynamic = true,
                                               .auto_define_visibility =
                                                   core::Visibility::kAdmin},
                   .engine = {},
                   .cache = {}}) {}

ObjectId HybridBackend::ingest(const xml::Document& doc, const std::string& owner) {
  return catalog_.ingest(doc, "object", owner);
}

std::vector<ObjectId> HybridBackend::query(const core::ObjectQuery& q) const {
  return catalog_.query(q);
}

std::string HybridBackend::reconstruct(ObjectId id) const {
  return core::ResponseBuilder(catalog_.partition(), catalog_.database())
      .build_document(id);
}

std::size_t HybridBackend::storage_bytes() const {
  return catalog_.database().approx_bytes();
}

}  // namespace hxrc::baselines
