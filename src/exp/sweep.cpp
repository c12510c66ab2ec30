#include "exp/sweep.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace spms::exp {

namespace {

template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T fallback) {
  if (!axis.empty()) return axis;
  return {std::move(fallback)};
}

std::string job_label(const std::string& scenario, const SweepJob& job) {
  std::ostringstream os;
  if (!scenario.empty()) os << scenario << '/';
  os << to_string(job.protocol) << "/n" << job.node_count << "/r" << job.zone_radius_m;
  if (!job.variant.empty()) os << '/' << job.variant;
  os << "/s" << job.seed;
  return os.str();
}

}  // namespace

void SweepSpec::set(const std::string& key, const std::string& value) {
  if (key == "label") {
    throw std::invalid_argument{"label is not settable: the sweep names each job"};
  }
  ExperimentConfig probe = base;
  set_field(probe, key, value);
  if (key == "protocol") protocols = {probe.protocol};
  if (key == "node_count") node_counts = {probe.node_count};
  if (key == "zone_radius_m") zone_radii = {probe.zone_radius_m};
  if (key == "seed") seeds = {probe.seed};
  base = std::move(probe);
  settings.emplace_back(key, value);
}

void SweepSpec::select_variant(const std::string& variant) {
  const auto it = std::find_if(variants.begin(), variants.end(),
                               [&](const ConfigVariant& v) { return v.name == variant; });
  if (it == variants.end()) {
    std::string msg = "unknown variant '" + variant + "'; " + name + " has";
    if (variants.empty()) msg += " none";
    for (const auto& v : variants) msg += " " + v.name;
    throw std::invalid_argument{msg};
  }
  variants = {*it};
}

void SweepSpec::use_consecutive_seeds(std::size_t count) {
  seeds.clear();
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(base.seed + i);
}

std::size_t SweepSpec::point_count() const {
  const auto n = [](std::size_t axis) { return axis == 0 ? 1 : axis; };
  return n(protocols.size()) * n(node_counts.size()) * n(zone_radii.size()) *
         n(variants.size());
}

std::size_t SweepSpec::job_count() const {
  return point_count() * (seeds.empty() ? 1 : seeds.size());
}

std::vector<SweepJob> SweepSpec::expand() const {
  const auto protocol_axis = axis_or(protocols, base.protocol);
  const auto node_axis = axis_or(node_counts, base.node_count);
  const auto radius_axis = axis_or(zone_radii, base.zone_radius_m);
  const auto seed_axis = axis_or(seeds, base.seed);
  auto variant_axis = variants;
  if (variant_axis.empty()) variant_axis.push_back({"", nullptr});

  std::vector<SweepJob> jobs;
  jobs.reserve(job_count());
  std::size_t point = 0;
  for (const auto nodes : node_axis) {
    for (const auto radius : radius_axis) {
      for (const auto& variant : variant_axis) {
        for (const auto protocol : protocol_axis) {
          for (const auto seed : seed_axis) {
            SweepJob job;
            job.index = jobs.size();
            job.point = point;
            job.protocol = protocol;
            job.node_count = nodes;
            job.zone_radius_m = radius;
            job.variant = variant.name;
            job.seed = seed;
            job.config = base;
            job.config.protocol = protocol;
            job.config.node_count = nodes;
            job.config.zone_radius_m = radius;
            if (variant.apply) variant.apply(job.config);
            for (const auto& [key, value] : settings) set_field(job.config, key, value);
            job.config.seed = seed;
            job.config.label = job_label(name, job);
            jobs.push_back(std::move(job));
          }
          ++point;
        }
      }
    }
  }
  return jobs;
}

std::vector<SweepJob> filter_shard(std::vector<SweepJob> jobs, std::size_t shard_index,
                                   std::size_t shard_count) {
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument{"filter_shard: require shard_index < shard_count"};
  }
  if (shard_count == 1) return jobs;
  std::vector<SweepJob> out;
  out.reserve(jobs.size() / shard_count + 1);
  for (auto& job : jobs) {
    if (job.index % shard_count != shard_index) continue;
    job.index = out.size();
    out.push_back(std::move(job));
  }
  return out;
}

}  // namespace spms::exp
