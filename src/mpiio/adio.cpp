#include "mpiio/adio.hpp"

#include <algorithm>

namespace pfsc::mpiio {

const char* driver_name(Driver d) {
  switch (d) {
    case Driver::ad_ufs: return "ad_ufs";
    case Driver::ad_lustre: return "ad_lustre";
    case Driver::ad_plfs: return "ad_plfs";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// ad_ufs / ad_lustre: both talk to Lustre directly; only ad_lustre applies
// the striping hints and stripe-aligns collective file domains.
// ---------------------------------------------------------------------------
class LustreFamilyDriver final : public AdioDriver {
 public:
  explicit LustreFamilyDriver(bool apply_hints) : apply_hints_(apply_hints) {}

  bool two_phase_capable() const override { return true; }

  Bytes domain_alignment(const OpenContext& ctx) const override {
    // ad_lustre aligns file domains to the stripe size so each stripe is
    // written by exactly one aggregator; ad_ufs has no such knowledge.
    if (!apply_hints_ || ctx.ino == lustre::kNoInode || ctx.fs == nullptr) return 0;
    return ctx.fs->inode(ctx.ino).layout.stripe_size;
  }

  sim::Co<Errno> open_rank(lustre::Client& client, OpenContext& ctx, int rank,
                           bool create) override {
    if (rank == 0) {
      if (create && !client.fs().exists(ctx.path)) {
        lustre::StripeSettings settings;
        if (apply_hints_) {
          settings.stripe_count = ctx.hints.striping_factor;
          settings.stripe_size = ctx.hints.striping_unit;
          settings.stripe_offset = ctx.hints.start_iodevice;
          settings.size_hint = ctx.hints.expected_file_size;
        }
        auto r = co_await client.create(ctx.path, settings);
        if (!r.ok()) co_return r.err;
        ctx.ino = r.value;
        co_return Errno::ok;
      }
      auto r = co_await client.open(ctx.path);
      if (!r.ok()) co_return r.err;
      ctx.ino = r.value;
      co_return Errno::ok;
    }
    // Non-root ranks open the now-existing file (pays MDS open cost).
    auto r = co_await client.open(ctx.path);
    if (!r.ok()) co_return r.err;
    PFSC_ASSERT(r.value == ctx.ino);
    co_return Errno::ok;
  }

  // The pure forwarders below are plain functions returning the inner Co:
  // Co is lazy, so this runs exactly what `co_return co_await` would.
  sim::Co<Errno> write_independent(lustre::Client& client, OpenContext& ctx,
                                   int /*rank*/, Bytes offset,
                                   Bytes length) override {
    return client.write(ctx.ino, offset, length);
  }

  sim::Co<Errno> read_independent(lustre::Client& client, OpenContext& ctx,
                                  int /*rank*/, Bytes offset,
                                  Bytes length) override {
    const lustre::Inode& node = client.fs().inode(ctx.ino);
    if (ctx.hints.romio_ds_read && ctx.hints.ind_rd_buffer_size > 0) {
      // Data sieving: fetch an aligned window covering the request, clamped
      // to the file size (read amplification traded for one contiguous I/O).
      const Bytes buf = ctx.hints.ind_rd_buffer_size;
      const Bytes lo = offset / buf * buf;
      const Bytes hi = std::min<Bytes>(node.size, (offset + length + buf - 1) / buf * buf);
      if (lo >= hi || offset + length > node.size) co_return Errno::einval;
      co_return co_await client.read(ctx.ino, lo, hi - lo);
    }
    co_return co_await client.read(ctx.ino, offset, length);
  }

  // One round's extents, issued concurrently as records (the client's RPC
  // window provides the in-flight bound, like a real Lustre client).
  sim::Co<Errno> write_run(
      lustre::Client& client, OpenContext& ctx,
      const std::vector<std::pair<Bytes, Bytes>>& extents) override {
    return client.io_extents(ctx.ino, extents, /*is_write=*/true);
  }

  sim::Co<Errno> read_run(
      lustre::Client& client, OpenContext& ctx,
      const std::vector<std::pair<Bytes, Bytes>>& extents) override {
    return client.io_extents(ctx.ino, extents, /*is_write=*/false);
  }

  sim::Co<Errno> close_rank(lustre::Client& /*client*/, OpenContext& /*ctx*/,
                            int /*rank*/) override {
    co_return Errno::ok;
  }

  Bytes size(const OpenContext& ctx) const override {
    if (ctx.ino == lustre::kNoInode || ctx.fs == nullptr) return 0;
    return ctx.fs->inode(ctx.ino).size;
  }

 private:
  bool apply_hints_;
};

// ---------------------------------------------------------------------------
// ad_plfs
// ---------------------------------------------------------------------------
class PlfsDriver final : public AdioDriver {
 public:
  bool two_phase_capable() const override { return false; }
  Bytes domain_alignment(const OpenContext&) const override { return 0; }

  sim::Co<Errno> open_rank(lustre::Client& client, OpenContext& ctx, int rank,
                           bool create) override {
    PFSC_REQUIRE(ctx.plfs != nullptr, "ad_plfs: no PLFS instance supplied");
    if (create) {
      auto r = co_await ctx.plfs->open_write(client, ctx.path, rank);
      if (!r.ok()) co_return r.err;
      ctx.plfs_writers.emplace(rank, std::move(r.value));
      co_return Errno::ok;
    }
    if (rank == 0) {
      auto r = co_await ctx.plfs->open_read(client, ctx.path);
      if (!r.ok()) co_return r.err;
      ctx.plfs_reader = std::move(r.value);
      ctx.plfs_reader_open = true;
    }
    co_return Errno::ok;
  }

  sim::Co<Errno> write_independent(lustre::Client& client, OpenContext& ctx,
                                   int rank, Bytes offset,
                                   Bytes length) override {
    auto it = ctx.plfs_writers.find(rank);
    if (it == ctx.plfs_writers.end()) co_return Errno::ebadf;
    co_return co_await ctx.plfs->write(client, it->second, offset, length);
  }

  sim::Co<Errno> read_independent(lustre::Client& client, OpenContext& ctx,
                                  int /*rank*/, Bytes offset,
                                  Bytes length) override {
    if (!ctx.plfs_reader_open) co_return Errno::ebadf;
    co_return co_await ctx.plfs->read(client, ctx.plfs_reader, offset, length);
  }

  sim::Co<Errno> write_run(lustre::Client&, OpenContext&,
                           const std::vector<std::pair<Bytes, Bytes>>&) override {
    throw UsageError("ad_plfs: two-phase write_run is never used");
  }
  sim::Co<Errno> read_run(lustre::Client&, OpenContext&,
                          const std::vector<std::pair<Bytes, Bytes>>&) override {
    throw UsageError("ad_plfs: two-phase read_run is never used");
  }

  sim::Co<Errno> close_rank(lustre::Client& client, OpenContext& ctx,
                            int rank) override {
    auto it = ctx.plfs_writers.find(rank);
    if (it != ctx.plfs_writers.end() && it->second.open) {
      co_return co_await ctx.plfs->close_write(client, it->second);
    }
    co_return Errno::ok;
  }

  Bytes size(const OpenContext& ctx) const override {
    if (ctx.plfs_reader_open) return ctx.plfs_reader.logical_size();
    Bytes size = 0;
    for (const auto& [rank, handle] : ctx.plfs_writers) {
      for (const auto& rec : handle.all_records) {
        size = std::max(size, rec.logical_offset + rec.length);
      }
    }
    return size;
  }
};

}  // namespace

std::unique_ptr<AdioDriver> make_driver(const Hints& hints) {
  switch (hints.driver) {
    case Driver::ad_ufs: return std::make_unique<LustreFamilyDriver>(false);
    case Driver::ad_lustre: return std::make_unique<LustreFamilyDriver>(true);
    case Driver::ad_plfs: return std::make_unique<PlfsDriver>();
  }
  throw UsageError("make_driver: unknown driver");
}

}  // namespace pfsc::mpiio
