#include "mpiio/two_phase.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pfsc::mpiio {

std::vector<std::pair<Bytes, Bytes>> merge_extents(
    std::span<const IoRequest> requests) {
  std::vector<std::pair<Bytes, Bytes>> spans;
  spans.reserve(requests.size());
  for (const auto& r : requests) {
    if (r.length > 0) spans.emplace_back(r.offset, r.length);
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<Bytes, Bytes>> merged;
  merged.reserve(spans.size());
  for (const auto& [off, len] : spans) {
    if (!merged.empty() && merged.back().first + merged.back().second >= off) {
      const Bytes end = std::max(merged.back().first + merged.back().second,
                                 off + len);
      merged.back().second = end - merged.back().first;
    } else {
      merged.emplace_back(off, len);
    }
  }
  return merged;
}

std::vector<int> choose_aggregators(std::span<const void* const> node_key_of_rank,
                                    std::uint32_t cb_nodes) {
  std::vector<int> firsts;
  std::vector<const void*> seen;
  firsts.reserve(node_key_of_rank.size());
  seen.reserve(node_key_of_rank.size());
  for (std::size_t r = 0; r < node_key_of_rank.size(); ++r) {
    const void* key = node_key_of_rank[r];
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      seen.push_back(key);
      firsts.push_back(static_cast<int>(r));
    }
  }
  if (cb_nodes == 0 || firsts.size() <= cb_nodes) return firsts;
  // Thin evenly: keep cb_nodes aggregators spread across the node list.
  std::vector<int> out;
  out.reserve(cb_nodes);
  const double step = static_cast<double>(firsts.size()) / cb_nodes;
  for (std::uint32_t i = 0; i < cb_nodes; ++i) {
    out.push_back(firsts[static_cast<std::size_t>(i * step)]);
  }
  return out;
}

std::vector<AggregatorPlan> plan_two_phase(std::span<const IoRequest> requests,
                                           std::span<const int> aggregators,
                                           Bytes cb_buffer, Bytes alignment) {
  PFSC_REQUIRE(!aggregators.empty(), "plan_two_phase: no aggregators");
  PFSC_REQUIRE(cb_buffer > 0, "plan_two_phase: cb_buffer must be positive");
  if (alignment == 0) alignment = cb_buffer;

  const auto extents = merge_extents(requests);
  if (extents.empty()) return {};
  const Bytes lo = extents.front().first;
  const Bytes hi = extents.back().first + extents.back().second;

  // Contiguous, alignment-rounded file domains (ROMIO ad_lustre rounds the
  // domain size up to a stripe multiple so each stripe has one owner).
  const auto naggs = static_cast<Bytes>(aggregators.size());
  Bytes domain = (hi - lo + naggs - 1) / naggs;
  domain = (domain + alignment - 1) / alignment * alignment;

  std::vector<AggregatorPlan> plans;
  std::size_t ext_i = 0;
  for (Bytes a = 0; a < naggs; ++a) {
    const Bytes d_begin = lo + a * domain;
    const Bytes d_end = std::min(hi, d_begin + domain);
    if (d_begin >= hi) break;

    AggregatorPlan plan;
    plan.agg_rank = aggregators[static_cast<std::size_t>(a)];
    plan.domain_begin = d_begin;
    plan.domain_end = d_end;

    // Walk the merged extents clipped to this domain, cutting rounds of at
    // most cb_buffer present bytes.
    Round round;
    bool round_open = false;
    auto flush_round = [&] {
      if (round_open && round.present_bytes > 0) plan.rounds.push_back(round);
      round = Round{};
      round_open = false;
    };
    // extents are globally sorted; resume scanning where the previous
    // domain stopped (domains and extents both advance monotonically).
    std::size_t i = ext_i;
    while (i < extents.size()) {
      const Bytes e_off = extents[i].first;
      const Bytes e_end = e_off + extents[i].second;
      if (e_end <= d_begin) {
        ++i;
        ++ext_i;
        continue;
      }
      if (e_off >= d_end) break;
      Bytes cur = std::max(e_off, d_begin);
      const Bytes stop = std::min(e_end, d_end);
      while (cur < stop) {
        if (!round_open) {
          round.begin = cur;
          round_open = true;
        }
        const Bytes room = cb_buffer - round.present_bytes;
        const Bytes take = std::min<Bytes>(room, stop - cur);
        round.extents.emplace_back(cur, take);
        round.present_bytes += take;
        round.end = cur + take;
        cur += take;
        if (round.present_bytes == cb_buffer) flush_round();
      }
      if (e_end <= d_end) {
        ++i;  // fully consumed inside this domain
      } else {
        break;  // extent continues into the next domain
      }
    }
    flush_round();
    if (!plan.rounds.empty()) plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<AggregatorPlan> plan_two_phase_cyclic(
    std::span<const IoRequest> requests, std::span<const int> aggregators,
    Bytes cb_buffer, Bytes stripe_size) {
  PFSC_REQUIRE(!aggregators.empty(), "plan_two_phase_cyclic: no aggregators");
  PFSC_REQUIRE(cb_buffer > 0, "plan_two_phase_cyclic: cb_buffer must be positive");
  PFSC_REQUIRE(stripe_size > 0, "plan_two_phase_cyclic: stripe_size must be positive");

  const auto extents = merge_extents(requests);
  if (extents.empty()) return {};
  const auto naggs = static_cast<Bytes>(aggregators.size());

  std::vector<AggregatorPlan> plans(aggregators.size());
  std::vector<bool> touched(aggregators.size(), false);
  for (std::size_t a = 0; a < aggregators.size(); ++a) {
    plans[a].agg_rank = aggregators[a];
  }

  auto add_piece = [&](std::size_t a, Bytes off, Bytes len) {
    AggregatorPlan& plan = plans[a];
    if (!touched[a]) {
      plan.domain_begin = off;
      touched[a] = true;
      plan.rounds.emplace_back();
      plan.rounds.back().begin = off;
    }
    plan.domain_end = off + len;
    // Cut the piece into rounds of at most cb_buffer present bytes.
    Bytes cur = off;
    Bytes remaining = len;
    while (remaining > 0) {
      Round* round = &plan.rounds.back();
      if (round->present_bytes == cb_buffer) {
        plan.rounds.emplace_back();
        round = &plan.rounds.back();
        round->begin = cur;
      }
      const Bytes take = std::min<Bytes>(cb_buffer - round->present_bytes, remaining);
      if (!round->extents.empty() &&
          round->extents.back().first + round->extents.back().second == cur) {
        round->extents.back().second += take;
      } else {
        round->extents.emplace_back(cur, take);
      }
      round->present_bytes += take;
      round->end = cur + take;
      cur += take;
      remaining -= take;
    }
  };

  for (const auto& [e_off, e_len] : extents) {
    Bytes cur = e_off;
    const Bytes end = e_off + e_len;
    while (cur < end) {
      const Bytes stripe = cur / stripe_size;
      const Bytes stripe_end = (stripe + 1) * stripe_size;
      const Bytes take = std::min(end, stripe_end) - cur;
      add_piece(static_cast<std::size_t>(stripe % naggs), cur, take);
      cur += take;
    }
  }

  std::vector<AggregatorPlan> out;
  out.reserve(plans.size());
  for (std::size_t a = 0; a < plans.size(); ++a) {
    if (touched[a]) out.push_back(std::move(plans[a]));
  }
  return out;
}

}  // namespace pfsc::mpiio
