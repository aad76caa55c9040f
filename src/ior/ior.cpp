#include "ior/ior.hpp"

namespace pfsc::ior {

using lustre::Errno;

IorJob::IorJob(mpi::Communicator& comm, lustre::FileSystem& fs, Config config,
               plfs::Plfs* plfs)
    : comm_(&comm), fs_(&fs), config_(std::move(config)), plfs_(plfs) {
  PFSC_REQUIRE(config_.transfer_size > 0, "IOR: transfer size must be positive");
  PFSC_REQUIRE(config_.block_size > 0, "IOR: block size must be positive");
  PFSC_REQUIRE(config_.block_size % config_.transfer_size == 0,
               "IOR: block size must be a multiple of transfer size");
  PFSC_REQUIRE(config_.segment_count > 0, "IOR: segment count must be positive");
  PFSC_REQUIRE(config_.write_file || config_.read_file,
               "IOR: write and read phases are both off; the job moves nothing");
  // IOR knows each file's final size up front; declare it so a PFL spec
  // can pick the stripe count by size class. An explicit hint wins.
  if (config_.hints.expected_file_size == 0) {
    config_.hints.expected_file_size =
        config_.file_per_process
            ? bytes_per_rank()
            : bytes_per_rank() * static_cast<Bytes>(comm.size());
  }
  if (config_.file_per_process) {
    self_comms_.resize(static_cast<std::size_t>(comm.size()));
    rank_files_.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      self_comms_[static_cast<std::size_t>(r)] =
          std::make_unique<mpi::Communicator>(comm.engine(), 1);
      rank_files_[static_cast<std::size_t>(r)] = std::make_unique<mpiio::File>(
          *self_comms_[static_cast<std::size_t>(r)], fs,
          config_.test_file + "." + std::to_string(r), config_.hints, plfs_);
    }
  } else {
    file_ = std::make_unique<mpiio::File>(comm, fs, config_.test_file,
                                          config_.hints, plfs_);
  }
}

mpiio::File& IorJob::file_for(int rank) {
  if (config_.file_per_process) {
    return *rank_files_[static_cast<std::size_t>(rank)];
  }
  return *file_;
}

std::vector<lustre::InodeId> IorJob::file_inos() const {
  std::vector<lustre::InodeId> inos;
  if (config_.file_per_process) {
    inos.reserve(rank_files_.size());
    for (const auto& f : rank_files_) inos.push_back(f->context().ino);
  } else {
    inos.push_back(file_->context().ino);
  }
  return inos;
}

Bytes IorJob::bytes_per_rank() const {
  return config_.block_size * config_.segment_count;
}

Bytes IorJob::rank_offset(std::uint32_t segment, int rank,
                          std::uint32_t transfer) const {
  const auto n = static_cast<Bytes>(comm_->size());
  return (static_cast<Bytes>(segment) * n + static_cast<Bytes>(rank)) *
             config_.block_size +
         static_cast<Bytes>(transfer) * config_.transfer_size;
}

sim::Co<void> IorJob::write_phase(int rank, lustre::Client& client,
                                  Result& local) {
  sim::Engine& eng = comm_->engine();
  mpiio::File& file = file_for(rank);
  const int file_rank = config_.file_per_process ? 0 : rank;
  co_await comm_->barrier(rank);
  const Seconds t0 = eng.now();

  Errno err = co_await file.open(file_rank, client, /*create=*/true);
  const std::uint32_t transfers =
      static_cast<std::uint32_t>(config_.block_size / config_.transfer_size);
  for (std::uint32_t seg = 0; err == Errno::ok && seg < config_.segment_count;
       ++seg) {
    for (std::uint32_t j = 0; err == Errno::ok && j < transfers; ++j) {
      // File-per-process writes are dense within the rank's own file.
      const Bytes off = config_.file_per_process
                            ? static_cast<Bytes>(seg) * config_.block_size +
                                  static_cast<Bytes>(j) * config_.transfer_size
                            : rank_offset(seg, rank, j);
      err = config_.use_collective
                ? co_await file.write_at_all(file_rank, off, config_.transfer_size)
                : co_await file.write_at(file_rank, off, config_.transfer_size);
    }
  }
  const Errno close_err = co_await file.close(file_rank);
  if (err == Errno::ok) err = close_err;
  co_await comm_->barrier(rank);

  local.write_time = eng.now() - t0;
  if (local.err == Errno::ok) local.err = err;
}

sim::Co<void> IorJob::read_phase(int rank, lustre::Client& client,
                                 Result& local) {
  sim::Engine& eng = comm_->engine();
  mpiio::File& file = file_for(rank);
  const int file_rank = config_.file_per_process ? 0 : rank;
  // IOR's -C: read the data a shifted rank wrote (shared-file mode only).
  const int eff_rank = config_.file_per_process
                           ? rank
                           : (rank + config_.reorder_tasks) % comm_->size();
  co_await comm_->barrier(rank);
  const Seconds t0 = eng.now();

  Errno err = co_await file.open(file_rank, client, /*create=*/false);
  const std::uint32_t transfers =
      static_cast<std::uint32_t>(config_.block_size / config_.transfer_size);
  for (std::uint32_t seg = 0; err == Errno::ok && seg < config_.segment_count;
       ++seg) {
    for (std::uint32_t j = 0; err == Errno::ok && j < transfers; ++j) {
      const Bytes off = config_.file_per_process
                            ? static_cast<Bytes>(seg) * config_.block_size +
                                  static_cast<Bytes>(j) * config_.transfer_size
                            : rank_offset(seg, eff_rank, j);
      err = config_.use_collective
                ? co_await file.read_at_all(file_rank, off, config_.transfer_size)
                : co_await file.read_at(file_rank, off, config_.transfer_size);
    }
  }
  const Errno close_err = co_await file.close(file_rank);
  if (err == Errno::ok) err = close_err;
  co_await comm_->barrier(rank);

  local.read_time = eng.now() - t0;
  if (local.err == Errno::ok) local.err = err;
}

sim::Task IorJob::rank_main(int rank, lustre::Client& client) {
  co_await run_rank(rank, client);
}

sim::Co<void> IorJob::run_rank(int rank, lustre::Client& client) {
  client.set_job(config_.job_id);
  Result local;
  if (config_.write_file) co_await write_phase(rank, client, local);
  if (config_.read_file) co_await read_phase(rank, client, local);

  if (rank == 0) {
    local.total_bytes =
        bytes_per_rank() * static_cast<Bytes>(comm_->size());
    local.write_mbps = config_.write_file
                           ? bandwidth_mbps(local.total_bytes, local.write_time)
                           : 0.0;
    local.read_mbps = config_.read_file
                          ? bandwidth_mbps(local.total_bytes, local.read_time)
                          : 0.0;
    if (config_.verify_extents && config_.write_file &&
        local.err == Errno::ok) {
      if (config_.file_per_process) {
        local.verified = true;
        for (const auto& f : rank_files_) {
          if (config_.hints.driver == mpiio::Driver::ad_plfs) {
            local.verified = local.verified && f->size() == bytes_per_rank();
          } else {
            const lustre::Inode& node = fs_->inode(f->context().ino);
            local.verified =
                local.verified && node.written.covers(0, bytes_per_rank());
          }
        }
      } else if (config_.hints.driver == mpiio::Driver::ad_plfs) {
        local.verified = file_->size() == local.total_bytes;
      } else {
        const lustre::Inode& node = fs_->inode(file_->context().ino);
        local.verified = node.written.covers(0, local.total_bytes);
      }
    }
    result_ = local;
  }
  ++finished_;
}

const Result& IorJob::result() const {
  PFSC_REQUIRE(finished(), "IorJob::result: job has not finished");
  return result_;
}

Result run_ior(mpi::Runtime& runtime, Config config, plfs::Plfs* plfs) {
  IorJob job(runtime.world(), runtime.fs(), std::move(config), plfs);
  runtime.run_to_completion([&](int rank) -> sim::Task {
    return job.rank_main(rank, runtime.client(rank));
  });
  return job.result();
}

}  // namespace pfsc::ior
