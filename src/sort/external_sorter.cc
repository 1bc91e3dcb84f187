#include "sort/external_sorter.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include <unistd.h>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sort/loser_tree.h"

namespace cubetree {

namespace {

struct SorterMetrics {
  obs::Counter* runs_spilled;
  obs::Counter* merge_passes;
  obs::Counter* bytes_spilled;

  static const SorterMetrics& Get() {
    static const SorterMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return SorterMetrics{reg.GetCounter("sorter.runs_spilled"),
                           reg.GetCounter("sorter.merge_passes"),
                           reg.GetCounter("sorter.bytes_spilled")};
    }();
    return m;
  }
};

std::string NextRunPath(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  return dir + "/ctsort_run_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".tmp";
}

/// Depth-1 double buffering for a loser-tree merge: one background thread
/// round-robins over the runs, keeping each run's next sequential page
/// loaded before the merge asks for it, so merge compute overlaps the
/// transfer of the next page instead of stalling on a synchronous
/// ReadPage. Each PageManager is touched only by the prefetch thread once
/// a ReadAhead owns it. The prefetch thread has no ambient trace: its
/// page reads land in IoStats but are not attributed to any span.
class ReadAhead {
 public:
  struct Run {
    PageManager* file = nullptr;
    uint64_t num_pages = 0;
  };

  explicit ReadAhead(const std::vector<Run>& runs) {
    slots_.reserve(runs.size());
    for (const Run& run : runs) {
      slots_.emplace_back();
      slots_.back().file = run.file;
      slots_.back().num_pages = run.num_pages;
    }
    thread_ = std::thread(&ReadAhead::Loop, this);
  }

  ~ReadAhead() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

  ReadAhead(const ReadAhead&) = delete;
  ReadAhead& operator=(const ReadAhead&) = delete;

  /// Blocks until run `i`'s next sequential page is prefetched, copies it
  /// into *out, and frees the slot for the next page. Returns the read's
  /// status; callers must not ask for pages past num_pages.
  Status NextPage(size_t i, Page* out) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Slot& slot = slots_[i];
    while (!slot.full) cv_.Wait(lock);
    *out = slot.page;
    Status read = slot.status;
    slot.full = false;
    cv_.NotifyAll();
    return read;
  }

 private:
  struct Slot {
    PageManager* file = nullptr;
    uint64_t num_pages = 0;
    PageId next = 0;  // Next page the prefetcher will load.
    Page page;
    Status status;
    bool full = false;
  };

  void Loop() EXCLUDES(mu_) {
    while (true) {
      PageManager* file = nullptr;
      PageId page_id = 0;
      size_t index = 0;
      {
        MutexLock lock(mu_);
        while (true) {
          if (stop_) return;
          bool found = false;
          for (size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].full && slots_[i].next < slots_[i].num_pages) {
              file = slots_[i].file;
              page_id = slots_[i].next;
              index = i;
              found = true;
              break;
            }
          }
          if (found) break;
          cv_.Wait(lock);  // Everything prefetched or exhausted.
        }
      }
      // Read outside the lock: the consumer only ever touches slots_, so
      // the file itself is this thread's alone.
      Page page;
      Status read = file->ReadPage(page_id, &page);
      {
        MutexLock lock(mu_);
        Slot& slot = slots_[index];
        slot.page = page;
        slot.status = std::move(read);
        slot.full = true;
        ++slot.next;
      }
      cv_.NotifyAll();
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// Sequential reader over one spilled run file, optionally fed by a
/// shared ReadAhead prefetcher instead of synchronous ReadPage calls.
class RunReader {
 public:
  RunReader(PageManager* file, size_t record_size, uint64_t num_records,
            ReadAhead* read_ahead = nullptr, size_t slot = 0)
      : file_(file),
        record_size_(record_size),
        remaining_(num_records),
        per_page_(kPageSize / record_size),
        read_ahead_(read_ahead),
        slot_(slot) {}

  /// Sets *record to the next record or nullptr when the run is exhausted.
  Status Next(const char** record) {
    if (remaining_ == 0) {
      *record = nullptr;
      return Status::OK();
    }
    if (in_page_ == per_page_ || next_page_ == 0) {
      if (read_ahead_ != nullptr) {
        CT_RETURN_NOT_OK(read_ahead_->NextPage(slot_, &page_));
      } else {
        CT_RETURN_NOT_OK(file_->ReadPage(next_page_, &page_));
      }
      ++next_page_;
      in_page_ = 0;
    }
    *record = page_.data + in_page_ * record_size_;
    ++in_page_;
    --remaining_;
    return Status::OK();
  }

 private:
  PageManager* file_;
  size_t record_size_;
  uint64_t remaining_;
  size_t per_page_;
  ReadAhead* read_ahead_;
  size_t slot_;
  Page page_;
  PageId next_page_ = 0;
  size_t in_page_ = per_page_;  // Forces a page read on first Next().
};

/// Loser-tree merge of several RunReaders. Optionally owns the ReadAhead
/// its readers pull from; destroyed with the stream (stopping the
/// prefetch thread before the underlying run files go away).
class MergeRecordStream : public RecordStream {
 public:
  MergeRecordStream(std::vector<RunReader> readers, RecordComparator less,
                    std::unique_ptr<ReadAhead> read_ahead = nullptr)
      : read_ahead_(std::move(read_ahead)),
        readers_(std::move(readers)),
        less_(std::move(less)) {}

  Status Next(const char** record) override {
    if (!primed_) {
      current_.resize(readers_.size());
      for (size_t i = 0; i < readers_.size(); ++i) {
        CT_RETURN_NOT_OK(readers_[i].Next(&current_[i]));
      }
      tree_ = std::make_unique<LoserTree>(
          readers_.size(), [this](size_t a, size_t b) {
            if (current_[a] == nullptr) return false;
            if (current_[b] == nullptr) return true;
            return less_(current_[a], current_[b]);
          });
      primed_ = true;
    } else {
      const size_t w = tree_->Winner();
      CT_RETURN_NOT_OK(readers_[w].Next(&current_[w]));
      tree_->Replay();
    }
    const size_t w = tree_->Winner();
    *record = current_[w];
    return Status::OK();
  }

 private:
  std::unique_ptr<ReadAhead> read_ahead_;  // Nullable; outlives readers_.
  std::vector<RunReader> readers_;
  RecordComparator less_;
  std::vector<const char*> current_;
  std::unique_ptr<LoserTree> tree_;
  bool primed_ = false;
};

/// Pages a run of `records` fixed-width records occupies on disk.
uint64_t PagesForRecords(uint64_t records, size_t record_size) {
  const uint64_t per_page = kPageSize / record_size;
  return (records + per_page - 1) / per_page;
}

/// Sorts the fixed-width records held in *buffer in place.
void SortRecords(std::vector<char>* buffer, size_t record_size,
                 const RecordComparator& less) {
  const size_t rs = record_size;
  const size_t n = buffer->size() / rs;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const char* base = buffer->data();
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return less(base + static_cast<size_t>(a) * rs,
                base + static_cast<size_t>(b) * rs);
  });
  std::vector<char> sorted(buffer->size());
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(sorted.data() + i * rs,
                base + static_cast<size_t>(order[i]) * rs, rs);
  }
  buffer->swap(sorted);
}

}  // namespace

ExternalSorter::ExternalSorter(Options options, RecordComparator less)
    : options_(std::move(options)), less_(std::move(less)) {
  // Spill and merge lay records out per page as kPageSize / record_size;
  // a zero or page-exceeding record size would make that quotient 0 and
  // turn SpillRun's write loop into an infinite loop (and RunReader into
  // an out-of-page overrun). Latch the error here — constructors cannot
  // fail — and surface it from the first Add/Finish.
  if (options_.record_size == 0 || options_.record_size > kPageSize) {
    budget_status_ = Status::InvalidArgument(
        "ExternalSorter: record_size " +
        std::to_string(options_.record_size) + " must be in [1, " +
        std::to_string(kPageSize) + "]");
    return;
  }
  // Floor the budget at 64 records: every spilled run keeps a file (and a
  // descriptor) open until Finish, so degenerate budgets must not turn
  // each record into its own run.
  options_.memory_budget_bytes =
      std::max(options_.memory_budget_bytes, options_.record_size * 64);
  if (options_.process_budget != nullptr) {
    auto granted = options_.process_budget->ReserveUpTo(
        options_.record_size * 64, options_.memory_budget_bytes,
        "external sorter");
    if (granted.ok()) {
      reservation_ = MemoryReservation(options_.process_budget,
                                       granted.value());
      // A smaller grant lowers the spill threshold: the sort still
      // completes, it just trades memory for extra run files.
      options_.memory_budget_bytes = static_cast<size_t>(granted.value());
    } else {
      budget_status_ = granted.status();
    }
  }
  buffer_.reserve(options_.memory_budget_bytes);
}

ExternalSorter::~ExternalSorter() {
  // Join outstanding background spills; a destructor cannot propagate, so
  // latched failures (and their runs) are simply dropped with the files.
  for (std::thread& worker : spill_workers_) worker.join();
  spill_workers_.clear();
  trace_handoff_.SpliceQueued();
  MutexLock lock(spill_mu_);
  if (spill_throw_ != nullptr) {
    CT_LOG(Warn) << "external sorter: background spill exception swallowed "
                    "by destructor";
  }
  runs_.clear();
  for (const std::string& path : run_paths_) {
    // Cannot propagate from a destructor, but a leaked run file should not
    // vanish silently: temp-dir growth is an operator-visible problem.
    Status removed = RemoveFileIfExists(path);
    if (!removed.ok()) {
      CT_LOG(Warn) << "external sorter: leaked run file: "
                   << removed.ToString();
    }
  }
}

Status ExternalSorter::Add(const char* record) {
  if (finished_) return Status::Internal("ExternalSorter: Add after Finish");
  CT_RETURN_NOT_OK(budget_status_);
  if (buffer_.size() + options_.record_size > options_.memory_budget_bytes) {
    CT_RETURN_NOT_OK(DispatchSpill());
  }
  buffer_.insert(buffer_.end(), record, record + options_.record_size);
  ++num_records_;
  return Status::OK();
}

void ExternalSorter::SortBuffer() {
  SortRecords(&buffer_, options_.record_size, less_);
}

Status ExternalSorter::DispatchSpill() {
  {
    // Surface a background failure before accepting more work; the error
    // stays latched so every later Add fails the same way.
    MutexLock lock(spill_mu_);
    CT_RETURN_NOT_OK(spill_error_);
  }
  const bool can_async =
      options_.spill_threads > 1 && options_.process_budget != nullptr;
  if (can_async) {
    // The detached buffer keeps its memory until the worker finishes, so
    // the replacement needs its own all-or-nothing reservation. Denial is
    // the degrade path, not an error: spill synchronously, reusing the
    // buffer we already own.
    Status extra = options_.process_budget->TryReserve(
        options_.memory_budget_bytes, "external sorter spill buffer");
    if (extra.ok()) {
      MemoryReservation replacement(options_.process_budget,
                                    options_.memory_budget_bytes);
      std::vector<char> full;
      full.reserve(options_.memory_budget_bytes);
      buffer_.swap(full);
      if (spill_workers_.size() >= options_.spill_threads) {
        // Backpressure: spills run roughly in FIFO order, so joining the
        // oldest worker frees a slot soonest.
        spill_workers_.front().join();
        spill_workers_.erase(spill_workers_.begin());
        MutexLock lock(spill_mu_);
        CT_RETURN_NOT_OK(spill_error_);
      }
      spill_workers_.emplace_back(&ExternalSorter::SpillWorkerBody, this,
                                  std::move(full), std::move(replacement));
    } else {
      CT_RETURN_NOT_OK(SpillRun());
    }
  } else {
    CT_RETURN_NOT_OK(SpillRun());
  }
  // Keep the number of simultaneously open run files bounded even while
  // records are still arriving. Merging mutates the run vectors, so the
  // background workers must be drained first.
  size_t num_runs_now = 0;
  {
    MutexLock lock(spill_mu_);
    num_runs_now = runs_.size();
  }
  if (num_runs_now >= 2 * std::max<size_t>(2, options_.max_merge_fanin)) {
    CT_RETURN_NOT_OK(WaitForSpills());
    CT_RETURN_NOT_OK(ReduceRuns());
  }
  return Status::OK();
}

Status ExternalSorter::SpillRun() {
  CT_FAULT("sort.spill");
  SortBuffer();
  CT_RETURN_NOT_OK(WriteRun(buffer_));
  buffer_.clear();
  return Status::OK();
}

void ExternalSorter::SpillWorkerBody(
    std::vector<char> buf, [[maybe_unused]] MemoryReservation res) {
  // `res` is never read: holding it by value pins the detached buffer's
  // budget share until this worker returns, and its destructor releases
  // it. Spans land in a local trace spliced at join (Defer, not Adopt: the
  // adding thread keeps tracing while we run).
  obs::TraceHandoff::Defer defer(trace_handoff_);
  Status spilled;
  try {
    spilled = [&]() -> Status {
      CT_FAULT("sort.spill");
      SortRecords(&buf, options_.record_size, less_);
      return WriteRun(buf);
    }();
  } catch (...) {
    MutexLock lock(spill_mu_);
    if (spill_throw_ == nullptr) spill_throw_ = std::current_exception();
    return;
  }
  if (!spilled.ok()) {
    MutexLock lock(spill_mu_);
    if (spill_error_.ok()) spill_error_ = std::move(spilled);
  }
}

Status ExternalSorter::WriteRun(const std::vector<char>& buf) {
  const size_t rs = options_.record_size;
  const size_t per_page = kPageSize / rs;
  const size_t n = buf.size() / rs;
  obs::Span spill_span("sort.spill");
  spill_span.Annotate("records", static_cast<uint64_t>(n));
  spill_span.Annotate("bytes", static_cast<uint64_t>(n * rs));
  std::string path = NextRunPath(options_.temp_dir);
  CT_ASSIGN_OR_RETURN(auto file, PageManager::Create(path, options_.io_stats));
  Page page;
  size_t written = 0;
  while (written < n) {
    page.Zero();
    const size_t batch = std::min(per_page, n - written);
    std::memcpy(page.data, buf.data() + written * rs, batch * rs);
    Status appended = file->AppendPage(page).status();
    if (!appended.ok()) {
      // The run is registered in run_paths_ only after a complete write,
      // so nothing else would ever delete this partial file — not even
      // the destructor's leak log. Remove it now, under the typed error
      // (StorageFull on a full disk) that the caller sees.
      file.reset();
      (void)RemoveFileIfExists(path);  // Best effort beneath the error.
      return appended;
    }
    written += batch;
  }
  {
    MutexLock lock(spill_mu_);
    run_record_counts_.push_back(n);
    runs_.push_back(std::move(file));
    run_paths_.push_back(std::move(path));
  }
  SorterMetrics::Get().runs_spilled->Increment();
  SorterMetrics::Get().bytes_spilled->Increment(n * rs);
  return Status::OK();
}

Status ExternalSorter::WaitForSpills() {
  for (std::thread& worker : spill_workers_) worker.join();
  spill_workers_.clear();
  // The workers are gone, so the parent trace is quiescent again: graft
  // their queued sort.spill spans under the span that was ambient when
  // this sorter was constructed.
  trace_handoff_.SpliceQueued();
  MutexLock lock(spill_mu_);
  if (spill_throw_ != nullptr) {
    std::exception_ptr thrown = spill_throw_;
    spill_throw_ = nullptr;
    std::rethrow_exception(thrown);
  }
  return spill_error_;  // A copy: the latch stays set for later calls.
}

Status ExternalSorter::MergeRunRange(size_t begin, size_t end) {
  CT_FAULT("sort.merge");
  obs::Span merge_span("sort.merge");
  merge_span.Annotate("runs", static_cast<uint64_t>(end - begin));
  std::vector<RunReader> readers;
  std::unique_ptr<ReadAhead> read_ahead;
  uint64_t total = 0;
  {
    MutexLock lock(spill_mu_);
    if (options_.merge_read_ahead) {
      std::vector<ReadAhead::Run> prefetch;
      for (size_t i = begin; i < end; ++i) {
        prefetch.push_back({runs_[i].get(),
                            PagesForRecords(run_record_counts_[i],
                                            options_.record_size)});
      }
      read_ahead = std::make_unique<ReadAhead>(prefetch);
    }
    for (size_t i = begin; i < end; ++i) {
      readers.emplace_back(runs_[i].get(), options_.record_size,
                           run_record_counts_[i], read_ahead.get(),
                           i - begin);
      total += run_record_counts_[i];
    }
  }
  MergeRecordStream merged(std::move(readers), less_,
                           std::move(read_ahead));

  const size_t rs = options_.record_size;
  const size_t per_page = kPageSize / rs;
  std::string path = NextRunPath(options_.temp_dir);
  CT_ASSIGN_OR_RETURN(auto file, PageManager::Create(path, options_.io_stats));
  const auto write_merged = [&]() -> Status {
    Page page;
    page.Zero();
    size_t in_page = 0;
    const char* record = nullptr;
    while (true) {
      CT_RETURN_NOT_OK(merged.Next(&record));
      if (record == nullptr) break;
      std::memcpy(page.data + in_page * rs, record, rs);
      if (++in_page == per_page) {
        CT_RETURN_NOT_OK(file->AppendPage(page).status());
        page.Zero();
        in_page = 0;
      }
    }
    if (in_page > 0) {
      CT_RETURN_NOT_OK(file->AppendPage(page).status());
    }
    return Status::OK();
  };
  Status wrote = write_merged();
  if (!wrote.ok()) {
    // Same discipline as SpillRun: the partial output is invisible to the
    // destructor until it lands in run_paths_, so delete it eagerly. The
    // input runs stay intact for a retry.
    file.reset();
    (void)RemoveFileIfExists(path);  // Best effort beneath the error.
    return wrote;
  }

  // Retire the merged inputs; append the combined run.
  MutexLock lock(spill_mu_);
  for (size_t i = begin; i < end; ++i) {
    runs_[i].reset();
    CT_RETURN_NOT_OK(RemoveFileIfExists(run_paths_[i]));
  }
  runs_.erase(runs_.begin() + begin, runs_.begin() + end);
  run_paths_.erase(run_paths_.begin() + begin, run_paths_.begin() + end);
  run_record_counts_.erase(run_record_counts_.begin() + begin,
                           run_record_counts_.begin() + end);
  runs_.push_back(std::move(file));
  run_paths_.push_back(std::move(path));
  run_record_counts_.push_back(total);
  SorterMetrics::Get().merge_passes->Increment();
  return Status::OK();
}

Status ExternalSorter::ReduceRuns() {
  const size_t fanin = std::max<size_t>(2, options_.max_merge_fanin);
  while (true) {
    size_t num_runs_now = 0;
    {
      MutexLock lock(spill_mu_);
      num_runs_now = runs_.size();
    }
    if (num_runs_now <= fanin) break;
    const size_t batch = std::min(fanin, num_runs_now - fanin + 1);
    CT_RETURN_NOT_OK(MergeRunRange(0, batch));
  }
  return Status::OK();
}

Result<std::unique_ptr<RecordStream>> ExternalSorter::Finish() {
  CT_FAULT("sort.finish");
  if (finished_) return Status::Internal("ExternalSorter: double Finish");
  CT_RETURN_NOT_OK(budget_status_);
  finished_ = true;
  CT_RETURN_NOT_OK(WaitForSpills());
  size_t num_runs_now = 0;
  {
    MutexLock lock(spill_mu_);
    num_runs_now = runs_.size();
  }
  if (num_runs_now == 0) {
    SortBuffer();
    return std::unique_ptr<RecordStream>(new MemoryRecordStream(
        std::move(buffer_), options_.record_size));
  }
  if (!buffer_.empty()) {
    CT_RETURN_NOT_OK(SpillRun());
  }
  CT_RETURN_NOT_OK(ReduceRuns());
  std::vector<RunReader> readers;
  std::unique_ptr<ReadAhead> read_ahead;
  MutexLock lock(spill_mu_);
  readers.reserve(runs_.size());
  if (options_.merge_read_ahead && runs_.size() > 1) {
    std::vector<ReadAhead::Run> prefetch;
    for (size_t i = 0; i < runs_.size(); ++i) {
      prefetch.push_back({runs_[i].get(),
                          PagesForRecords(run_record_counts_[i],
                                          options_.record_size)});
    }
    read_ahead = std::make_unique<ReadAhead>(prefetch);
  }
  for (size_t i = 0; i < runs_.size(); ++i) {
    readers.emplace_back(runs_[i].get(), options_.record_size,
                         run_record_counts_[i], read_ahead.get(), i);
  }
  return std::unique_ptr<RecordStream>(new MergeRecordStream(
      std::move(readers), less_, std::move(read_ahead)));
}

}  // namespace cubetree
