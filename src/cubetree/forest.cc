#include "cubetree/forest.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "check/checkers.h"
#include "check/invariant_checker.h"
#include "common/assert.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "cubetree/merge_pack.h"
#include "common/timer.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/checksum.h"
#include "storage/disk_space.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

/// Concatenates the record streams of several views (ascending arity) into
/// one pack-ordered PointSource. Ascending-arity concatenation IS pack
/// order across views: a view of arity a has zeros in every coordinate
/// >= a, so all its points precede every point of any higher-arity view.
class MultiViewPointSource : public PointSource {
 public:
  struct ViewStream {
    ViewDef view;
    std::unique_ptr<RecordStream> stream;
  };

  explicit MultiViewPointSource(std::vector<ViewStream> streams)
      : streams_(std::move(streams)) {}

  Status Next(const PointRecord** record) override {
    while (index_ < streams_.size()) {
      const char* raw = nullptr;
      CT_RETURN_NOT_OK(streams_[index_].stream->Next(&raw));
      if (raw != nullptr) {
        const ViewDef& view = streams_[index_].view;
        record_.view_id = view.id;
        DecodeViewRecord(raw, view.arity(), record_.coords, &record_.agg);
        for (size_t i = view.arity(); i < kMaxDims; ++i) {
          record_.coords[i] = 0;
        }
        *record = &record_;
        return Status::OK();
      }
      ++index_;
    }
    *record = nullptr;
    return Status::OK();
  }

 private:
  std::vector<ViewStream> streams_;
  size_t index_ = 0;
  PointRecord record_;
};

/// Sets `path` and its checksum sidecar aside under a ".quarantine"
/// suffix, recording the aside names for the post-rebuild cleanup. The
/// sidecar follows its data file so a rebuilt generation never pairs with
/// stale checksums. Best effort: a rename failure is logged, and the
/// original file is left for a later recovery pass.
void SetAsideWithSidecar(const std::string& path,
                         std::vector<std::string>* aside_files) {
  for (const std::string& file : {path, ChecksumSidecarPath(path)}) {
    if (!FileExists(file)) continue;
    std::string aside = file + ".quarantine";
    // Not a commit point: best-effort tidying of an already-quarantined
    // file; crash coverage lives at the manifest swap.
    // ct-lint: allow(fault-pair)
    if (std::rename(file.c_str(), aside.c_str()) != 0) {
      CT_LOG(Warn) << "forest: cannot quarantine " << file << ": "
                   << std::strerror(errno);
      continue;
    }
    aside_files->push_back(std::move(aside));
  }
}

/// Records in `report` (if any) that tree `t`, and with it `view_ids`, was
/// taken out of service for `why`.
void ReportQuarantine(size_t t, const std::vector<uint32_t>& view_ids,
                      const Status& why, ForestRecoveryReport* report) {
  if (report == nullptr) return;
  report->quarantined_trees.push_back(t);
  report->quarantined_views.insert(report->quarantined_views.end(),
                                   view_ids.begin(), view_ids.end());
  report->notes.push_back("quarantined tree " + std::to_string(t) + ": " +
                          why.ToString());
}

/// Best-effort removal for refresh abort and cleanup paths; a failure
/// only leaves an orphan for the next sweep.
void RemoveBestEffort(const std::string& path, const char* what) {
  Status removed = RemoveFileIfExists(path);
  if (!removed.ok()) {
    CT_LOG(Warn) << "forest: " << what << ": " << removed.ToString();
  }
}

}  // namespace

namespace forest_internal {

namespace {

/// Depth of the deferred-unlink backlog: files retired from a published
/// generation but still pinned by in-flight readers.
obs::Gauge* GcBacklogGauge() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Instance().GetGauge("forest.gc_deferred_unlinks");
  return gauge;
}

}  // namespace

TrackedFile::TrackedFile(std::string path, std::shared_ptr<GcShared> gc)
    : path_(std::move(path)), gc_(std::move(gc)) {
  MutexLock lock(gc_->mu);
  gc_->tracked_paths.insert(path_);
}

void TrackedFile::Retire() {
  if (retired_.exchange(true, std::memory_order_relaxed)) return;
  {
    MutexLock lock(gc_->mu);
    ++gc_->unreclaimed_files;
  }
  GcBacklogGauge()->Add(1);
  // The GC failpoint is consulted here, at the retirement decision, rather
  // than in the destructor: throw/crash actions must fire in a normal call
  // context (inside the refresh), never during unwinding.
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check("forest.refresh.gc");
    if (outcome.fail) {
      CT_LOG(Warn) << "forest: refresh GC skipped " << path_ << ": "
                   << outcome.ToStatus().ToString();
      // Leave the file for recovery's orphan sweep.
      leaked_.store(true, std::memory_order_relaxed);
    }
  }
}

TrackedFile::~TrackedFile() {
  {
    // The token is dying on every path below, so the path loses its
    // protection from the online reclaim sweep either way: a leaked file
    // becomes sweepable (that is how it is reclaimed without a restart),
    // an unlinked one is gone, an unretired one is still in the live set.
    MutexLock lock(gc_->mu);
    gc_->tracked_paths.erase(path_);
  }
  // Unretired: the file is live and the forest is shutting down — keep it.
  if (!retired_.load(std::memory_order_relaxed) ||
      leaked_.load(std::memory_order_relaxed)) {
    return;
  }
  // Raw unlink, not RemoveFileIfExists: this destructor may run on a reader
  // thread releasing the last snapshot, and must not throw (failpoints on
  // the shared remove helper may).
  if (::unlink(path_.c_str()) != 0 && errno != ENOENT) {
    CT_LOG(Warn) << "forest: refresh GC: unlink " << path_ << ": "
                 << std::strerror(errno);
    return;
  }
  // The checksum sidecar shadows its data file through reclamation. A
  // failure only leaves an orphan for recovery's sweep.
  const std::string sidecar = ChecksumSidecarPath(path_);
  if (::unlink(sidecar.c_str()) != 0 && errno != ENOENT) {
    CT_LOG(Warn) << "forest: refresh GC: unlink " << sidecar << ": "
                 << std::strerror(errno);
  }
  {
    MutexLock lock(gc_->mu);
    --gc_->unreclaimed_files;
    ++gc_->reclaimed_files;
  }
  GcBacklogGauge()->Add(-1);
}

EpochState::~EpochState() {
  if (gc == nullptr || !retired.load(std::memory_order_relaxed)) return;
  MutexLock lock(gc->mu);
  gc->pinned_retired_epochs.erase(epoch);
}

}  // namespace forest_internal

bool ForestSnapshot::IsViewQuarantined(uint32_t view_id) const {
  auto it = state_->view_to_tree.find(view_id);
  if (it == state_->view_to_tree.end()) return false;
  return it->second < state_->quarantined.size() &&
         state_->quarantined[it->second];
}

Result<Cubetree*> ForestSnapshot::TreeForView(uint32_t view_id) const {
  auto it = state_->view_to_tree.find(view_id);
  if (it == state_->view_to_tree.end()) {
    return Status::NotFound("forest: view not materialized");
  }
  if (state_->quarantined[it->second]) {
    return Status::Unavailable("forest: view " + std::to_string(view_id) +
                               " is quarantined awaiting rebuild");
  }
  return state_->trees[it->second].get();
}

uint64_t ForestSnapshot::TotalPoints() const {
  uint64_t total = 0;
  for (const auto& tree : state_->trees) {
    if (tree) total += tree->TotalPoints();
  }
  return total;
}

std::string ForestRecoveryReport::ToString() const {
  std::ostringstream out;
  out << "recovery: orphans_removed=" << removed_orphans.size()
      << " quarantined_trees=" << quarantined_trees.size();
  for (const std::string& note : notes) out << "\n  " << note;
  return out.str();
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Create(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats) {
  if (pool == nullptr) {
    return Status::InvalidArgument("forest: buffer pool required");
  }
  return std::unique_ptr<CubetreeForest>(
      new CubetreeForest(std::move(options), pool, std::move(io_stats)));
}

std::string CubetreeForest::TreePath(size_t tree_index,
                                     uint32_t generation) const {
  return options_.dir + "/" + options_.name + "_t" +
         std::to_string(tree_index) + "_g" + std::to_string(generation) +
         ".ctr";
}

std::string CubetreeForest::DeltaPath(size_t tree_index,
                                      uint32_t generation) const {
  return options_.dir + "/" + options_.name + "_t" +
         std::to_string(tree_index) + "_d" + std::to_string(generation) +
         ".ctr";
}

std::string CubetreeForest::ManifestPath() const {
  return options_.dir + "/" + options_.name + ".manifest";
}

std::string CubetreeForest::SerializeManifest(
    const std::vector<uint32_t>& generations,
    const std::vector<std::vector<uint32_t>>& delta_generations) const {
  std::ostringstream out;
  // v2 adds the `checksums` line: every tree file this manifest names was
  // built with a checksum sidecar, and the loader refuses to serve a tree
  // whose sidecar is missing or invalid. v1 manifests (no line) stay
  // loadable with verification off, for files built before checksums.
  out << "cubetree-forest-manifest v2\n";
  out << "checksums 1\n";
  out << "views " << views_.size() << "\n";
  for (const ViewDef& v : views_) {
    out << "view " << v.id << " " << static_cast<int>(v.arity());
    for (uint32_t a : v.attrs) out << " " << a;
    out << "\n";
  }
  out << "trees " << plan_.trees.size() << "\n";
  for (size_t t = 0; t < plan_.trees.size(); ++t) {
    out << "tree " << static_cast<int>(plan_.trees[t].dims) << " "
        << generations[t];
    for (uint32_t vid : plan_.trees[t].view_ids) out << " " << vid;
    out << "\n";
  }
  for (size_t t = 0; t < delta_generations.size(); ++t) {
    for (uint32_t generation : delta_generations[t]) {
      out << "delta " << t << " " << generation << "\n";
    }
  }
  return out.str();
}

Status CubetreeForest::SaveManifestDurable(
    const std::vector<uint32_t>& generations,
    const std::vector<std::vector<uint32_t>>& delta_generations) const {
  // The manifest names tree files, so those files must be durable before
  // the manifest can point at them (PackedRTree::Build fsyncs). The swap
  // itself: write tmp -> fsync(tmp) -> fsync(dir) -> rename -> fsync(dir).
  // A crash anywhere before the rename leaves the old manifest in effect;
  // after it, the new one. There is no in-between.
  const std::string data = SerializeManifest(generations, delta_generations);
  const std::string tmp = ManifestPath() + ".tmp";
  CT_FAULT("forest.manifest.create");
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create " + tmp + ": " + std::strerror(errno));
  }
  Status status;
  if (FaultInjector::AnyArmed()) {
    status = FaultInjector::Instance().MaybeFail("forest.manifest.write");
  }
  if (status.ok()) status = PwriteFully(fd, data.data(), data.size(), 0, tmp);
  if (status.ok() && FaultInjector::AnyArmed()) {
    status = FaultInjector::Instance().MaybeFail("forest.manifest.sync");
  }
  if (status.ok()) status = SyncFd(fd, tmp);
  ::close(fd);
  if (status.ok()) status = SyncDir(options_.dir);
  if (status.ok() && FaultInjector::AnyArmed()) {
    status = FaultInjector::Instance().MaybeFail("forest.manifest.rename");
  }
  if (!status.ok()) return status;
  if (std::rename(tmp.c_str(), ManifestPath().c_str()) != 0) {
    return Status::IOError("rename " + tmp + ": " + std::strerror(errno));
  }
  // Commit point. The rename is visible; failing the caller now would make
  // it believe the old state is still in effect, so later problems are
  // logged instead of returned. (A real power cut before this directory
  // sync lands is equivalent to crashing before the rename — recovery
  // handles either generation.)
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome =
        FaultInjector::Instance().Check("forest.manifest.dirsync");
    if (outcome.fail) {
      CT_LOG(Warn) << "forest: manifest dirsync skipped: "
                   << outcome.ToStatus().ToString();
      return Status::OK();
    }
  }
  Status synced = SyncDir(options_.dir);
  if (!synced.ok()) {
    CT_LOG(Warn) << "forest: manifest dirsync: " << synced.ToString();
  }
  return Status::OK();
}

Status CubetreeForest::LoadManifest(bool tolerant,
                                    ForestRecoveryReport* report) {
  std::ifstream in(ManifestPath());
  if (!in) {
    return Status::NotFound("no forest manifest at " + ManifestPath());
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("bad forest manifest header");
  }
  bool expect_checksums = false;
  if (line == "cubetree-forest-manifest v2") {
    expect_checksums = true;
  } else if (line != "cubetree-forest-manifest v1") {
    return Status::Corruption("bad forest manifest header");
  }
  auto malformed = [] { return Status::Corruption("malformed manifest"); };
  std::string word;
  if (expect_checksums) {
    int flag = 0;
    if (!(in >> word >> flag) || word != "checksums") return malformed();
    expect_checksums = flag != 0;
  }
  size_t num_views = 0;
  if (!(in >> word >> num_views) || word != "views") return malformed();
  for (size_t i = 0; i < num_views; ++i) {
    ViewDef v;
    int arity = 0;
    if (!(in >> word >> v.id >> arity) || word != "view" || arity < 0 ||
        arity > static_cast<int>(kMaxDims)) {
      return malformed();
    }
    for (int a = 0; a < arity; ++a) {
      uint32_t attr;
      if (!(in >> attr)) return malformed();
      v.attrs.push_back(attr);
    }
    views_.push_back(v);
    if (!views_by_id_.emplace(v.id, v).second) return malformed();
  }
  // A v2 manifest promises a sidecar for every file it names; a missing
  // one means the file set was tampered with or torn.
  auto open_tree =
      [&](const std::string& path) -> Result<std::unique_ptr<PackedRTree>> {
    CT_ASSIGN_OR_RETURN(auto rtree, PackedRTree::Open(path, pool_, io_stats_));
    if (expect_checksums && !rtree->checksums_enabled()) {
      return Status::Corruption("missing checksum sidecar for " +
                                ChecksumSidecarPath(path));
    }
    return rtree;
  };
  size_t num_trees = 0;
  if (!(in >> word >> num_trees) || word != "trees") return malformed();
  std::vector<Status> main_failures;
  for (size_t t = 0; t < num_trees; ++t) {
    int dims = 0;
    uint32_t generation = 0;
    if (!(in >> word >> dims >> generation) || word != "tree") {
      return malformed();
    }
    ForestPlan::TreeSpec spec;
    spec.dims = static_cast<uint8_t>(dims);
    // The rest of the line holds the view ids.
    std::getline(in, line);
    std::istringstream ids(line);
    uint32_t vid;
    while (ids >> vid) {
      if (!views_by_id_.contains(vid)) return malformed();
      spec.view_ids.push_back(vid);
      plan_.view_to_tree[vid] = t;
    }
    plan_.trees.push_back(std::move(spec));
    generations_.push_back(generation);
    auto rtree = open_tree(TreePath(t, generation));
    if (rtree.ok()) {
      trees_.push_back(
          std::make_shared<Cubetree>(TreeViews(t), std::move(rtree).value()));
      main_failures.push_back(Status::OK());
    } else if (tolerant) {
      trees_.push_back(nullptr);
      main_failures.push_back(rtree.status());
    } else {
      return rtree.status();
    }
  }
  delta_generations_.assign(num_trees, {});
  next_delta_generation_.assign(num_trees, 0);
  quarantined_.assign(num_trees, false);
  quarantine_files_.assign(num_trees, {});
  for (size_t t = 0; t < num_trees; ++t) {
    if (!main_failures[t].ok()) quarantined_[t] = true;
  }
  while (in >> word) {
    if (word != "delta") return malformed();
    size_t tree_index = 0;
    uint32_t generation = 0;
    if (!(in >> tree_index >> generation) || tree_index >= trees_.size()) {
      return malformed();
    }
    next_delta_generation_[tree_index] =
        std::max(next_delta_generation_[tree_index], generation + 1);
    if (quarantined_[tree_index]) {
      // The tree is already out of service; set its delta file aside too.
      SetAsideWithSidecar(DeltaPath(tree_index, generation),
                          &quarantine_files_[tree_index]);
      continue;
    }
    delta_generations_[tree_index].push_back(generation);
    auto delta_tree = open_tree(DeltaPath(tree_index, generation));
    if (delta_tree.ok()) {
      trees_[tree_index]->AddDelta(std::move(delta_tree).value());
    } else if (tolerant) {
      QuarantineTree(tree_index, delta_tree.status(), report);
    } else {
      return delta_tree.status();
    }
  }
  // Finish quarantining trees whose main file would not open: set aside
  // whatever is left of them and record the event.
  for (size_t t = 0; t < num_trees; ++t) {
    if (main_failures[t].ok()) continue;
    SetAsideWithSidecar(TreePath(t, generations_[t]), &quarantine_files_[t]);
    ReportQuarantine(t, plan_.trees[t].view_ids, main_failures[t], report);
  }
  return Status::OK();
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Open(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats) {
  CT_ASSIGN_OR_RETURN(auto forest,
                      Create(std::move(options), pool, std::move(io_stats)));
  MutexLock lock(forest->refresh_mu_);
  CT_RETURN_NOT_OK(forest->LoadManifest(/*tolerant=*/false, nullptr));
  forest->PublishState();
  return forest;
}

void CubetreeForest::QuarantineTree(size_t t, const Status& why,
                                    ForestRecoveryReport* report) {
  const std::vector<std::string> paths = TreeFilesLocked(t);
  // Close before renaming so the buffer pool drops the file's pages.
  trees_[t].reset();
  delta_generations_[t].clear();
  quarantined_[t] = true;
  for (const std::string& path : paths) {
    SetAsideWithSidecar(path, &quarantine_files_[t]);
  }
  ReportQuarantine(t, plan_.trees[t].view_ids, why, report);
}

void CubetreeForest::RemoveOrphan(const std::string& path,
                                  ForestRecoveryReport* report) {
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check("forest.recover.gc");
    if (outcome.fail) {
      CT_LOG(Warn) << "forest: recovery GC skipped " << path << ": "
                   << outcome.ToStatus().ToString();
      return;
    }
  }
  Status removed = RemoveFileIfExists(path);
  if (!removed.ok()) {
    CT_LOG(Warn) << "forest: recovery GC: " << removed.ToString();
    return;
  }
  if (report != nullptr) report->removed_orphans.push_back(path);
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Recover(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats,
    ForestRecoveryReport* report, RecoverOptions recover) {
  CT_ASSIGN_OR_RETURN(auto forest,
                      Create(std::move(options), pool, std::move(io_stats)));
  ForestRecoveryReport local_report;
  if (report == nullptr) report = &local_report;

  // 1. Load the manifest, quarantining any tree that will not open. The
  // forest is not yet visible to other threads; the lock covers the whole
  // recovery so the guarded state is built under it.
  MutexLock lock(forest->refresh_mu_);
  CT_RETURN_NOT_OK(forest->LoadManifest(/*tolerant=*/true, report));

  // 2. Deep-check the trees that did open; quarantine the ones that fail
  // their invariants (a torn page write can leave an openable but
  // inconsistent file).
  if (recover.deep_check) {
    for (size_t t = 0; t < forest->trees_.size(); ++t) {
      if (forest->trees_[t] == nullptr) continue;
      Status verdict;
      for (const std::string& path : forest->TreeFilesLocked(t)) {
        RTreeChecker checker(path, CheckOptions{/*deep=*/true},
                             forest->ArityFn());
        CheckReport check_report;
        verdict = checker.Run(&check_report);
        if (verdict.ok() && !check_report.clean()) {
          verdict = Status::Corruption("invariant check failed for " + path);
        }
        if (!verdict.ok()) break;
      }
      if (!verdict.ok()) forest->QuarantineTree(t, verdict, report);
    }
  }

  // 3. Sweep the directory: a file the manifest does not reference is the
  // debris of an interrupted refresh (its half-built outputs, or the
  // un-reclaimed input of a committed one).
  CT_ASSIGN_OR_RETURN(const std::vector<std::string> orphans,
                      forest->OrphanFilesLocked({}));
  for (const std::string& path : orphans) {
    forest->RemoveOrphan(path, report);
  }
  forest->PublishState();
  return forest;
}

std::vector<std::string> CubetreeForest::TreeFilesLocked(
    size_t tree_index) const {
  std::vector<std::string> paths = {
      TreePath(tree_index, generations_[tree_index])};
  for (uint32_t g : delta_generations_[tree_index]) {
    paths.push_back(DeltaPath(tree_index, g));
  }
  return paths;
}

Result<std::vector<std::string>> CubetreeForest::OrphanFilesLocked(
    const std::set<std::string>& keep) const {
  std::set<std::string> live = keep;
  for (size_t t = 0; t < trees_.size(); ++t) {
    if (trees_[t] == nullptr) continue;
    for (std::string& path : TreeFilesLocked(t)) live.insert(std::move(path));
  }
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return Status::IOError("opendir " + options_.dir + ": " +
                           std::strerror(errno));
  }
  std::vector<std::string> orphans;
  const std::string& name = options_.name;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    const std::string path = options_.dir + "/" + file;
    const bool tree_file =
        file.starts_with(name + "_t") && file.ends_with(".ctr");
    // A checksum sidecar is live exactly when its data file is: one
    // surviving alone is debris from the same interrupted refresh.
    const bool sidecar_file =
        file.starts_with(name + "_t") && file.ends_with(".ctr.crc");
    const std::string data_path =
        sidecar_file ? path.substr(0, path.size() - 4) : path;
    if (((tree_file || sidecar_file) && !live.contains(data_path)) ||
        file == name + ".manifest.tmp") {
      orphans.push_back(path);
    }
  }
  ::closedir(dir);
  std::sort(orphans.begin(), orphans.end());  // deterministic sweep order
  return orphans;
}

std::vector<ViewDef> CubetreeForest::TreeViews(size_t tree_index) const {
  std::vector<ViewDef> views;
  for (uint32_t vid : plan_.trees[tree_index].view_ids) {
    views.push_back(views_by_id_.at(vid));
  }
  return views;
}

Result<std::unique_ptr<PointSource>> CubetreeForest::OpenTreeSource(
    size_t tree_index, ViewDataProvider* provider) const {
  std::vector<ViewDef> views = TreeViews(tree_index);
  std::sort(views.begin(), views.end(),
            [](const ViewDef& a, const ViewDef& b) {
              return a.arity() < b.arity();
            });
  std::vector<MultiViewPointSource::ViewStream> streams;
  for (ViewDef& view : views) {
    CT_ASSIGN_OR_RETURN(auto stream, provider->OpenViewStream(view));
    streams.push_back({std::move(view), std::move(stream)});
  }
  return std::unique_ptr<PointSource>(
      std::make_unique<MultiViewPointSource>(std::move(streams)));
}

std::function<uint8_t(uint32_t)> CubetreeForest::ArityFn() const {
  return [this](uint32_t view_id) {
    auto it = views_by_id_.find(view_id);
    return it == views_by_id_.end() ? uint8_t{0} : it->second.arity();
  };
}

Status CubetreeForest::Build(const std::vector<ViewDef>& views,
                             ViewDataProvider* provider) {
  MutexLock refresh_lock(refresh_mu_);
  if (!trees_.empty()) {
    return Status::InvalidArgument("forest: already built");
  }
  Status status = BuildLocked(views, provider);
  // A load that failed before its commit installed no tree: forget the
  // plan too, leaving the forest as Create left it for a retry.
  if (!status.ok() && (trees_.empty() || trees_.front() == nullptr)) {
    views_.clear();
    views_by_id_.clear();
    plan_ = ForestPlan();
    trees_.clear();
    generations_.clear();
    delta_generations_.clear();
    next_delta_generation_.clear();
    quarantined_.clear();
    quarantine_files_.clear();
  }
  return status;
}

Status CubetreeForest::BuildLocked(const std::vector<ViewDef>& views,
                                   ViewDataProvider* provider) {
  views_ = views;
  for (const ViewDef& v : views_) {
    if (!views_by_id_.emplace(v.id, v).second) {
      return Status::InvalidArgument("forest: duplicate view id");
    }
  }
  if (options_.one_tree_per_view) {
    for (const ViewDef& v : views_) {
      ForestPlan::TreeSpec spec;
      spec.dims = std::max<uint8_t>(1, v.arity());
      spec.view_ids = {v.id};
      plan_.view_to_tree[v.id] = plan_.trees.size();
      plan_.trees.push_back(std::move(spec));
    }
  } else {
    plan_ = SelectMapping(views_);
  }
  if (CT_DCHECK_IS_ON()) {
    // Whichever planner ran, the SelectMapping invariant must hold: every
    // view placed exactly once, at most one view per arity per tree.
    std::set<uint32_t> placed;
    for (const ForestPlan::TreeSpec& spec : plan_.trees) {
      std::set<uint8_t> arities;
      for (uint32_t vid : spec.view_ids) {
        CT_DCHECK(placed.insert(vid).second)
            << "view " << vid << " placed in two trees";
        CT_DCHECK(arities.insert(views_by_id_.at(vid).arity()).second)
            << "two views of one arity share a tree";
      }
    }
    CT_DCHECK(placed.size() == views_.size()) << "plan left a view unplaced";
  }
  const size_t num_trees = plan_.trees.size();
  trees_.assign(num_trees, nullptr);
  generations_.assign(num_trees, 0);
  delta_generations_.assign(num_trees, {});
  next_delta_generation_.assign(num_trees, 0);
  quarantined_.assign(num_trees, false);
  quarantine_files_.assign(num_trees, {});

  // The load writes generation 0 of every tree.
  std::vector<RefreshTask> tasks;
  for (size_t t = 0; t < num_trees; ++t) {
    CT_ASSIGN_OR_RETURN(auto source, OpenTreeSource(t, provider));
    tasks.push_back({t, std::move(source), TreePath(t, 0), 0, false});
  }
  return CommitGeneration(
      std::move(tasks),
      EstimateRefreshBytes(0, provider->EstimatedInputBytes(),
                           ResolvedRefreshThreads(num_trees)),
      "refresh.load_pack");
}

Status CubetreeForest::RefreshableLocked() const {
  if (trees_.empty()) {
    return Status::InvalidArgument("forest: not built yet");
  }
  if (HasQuarantineLocked()) {
    return Status::Unavailable(
        "forest: quarantined trees must be rebuilt before a refresh");
  }
  return Status::OK();
}

CubetreeForest::RefreshTask CubetreeForest::NextTask(
    size_t t, std::unique_ptr<PointSource> source, bool delta) const {
  const uint32_t g = delta ? next_delta_generation_[t] : generations_[t] + 1;
  return {t, std::move(source), delta ? DeltaPath(t, g) : TreePath(t, g), g,
          delta};
}

Status CubetreeForest::CommitGeneration(std::vector<RefreshTask> tasks,
                                        uint64_t estimated_bytes,
                                        const char* pack_span) {
  // Space preflight: the refresh transiently needs its new files beside
  // the live ones (plus sort runs and sidecars). Refuse up front with a
  // typed, retriable StorageFull naming the shortfall rather than hit
  // ENOSPC halfway through the pack — the published epoch keeps serving
  // either way.
  CT_RETURN_NOT_OK(PreflightRefreshLocked(estimated_bytes));
  CT_FAULT("forest.refresh.begin");
  for (const RefreshTask& task : tasks) {
    if (task.delta) next_delta_generation_[task.tree] = task.generation + 1;
  }

  // Phase 1: pack every task's output beside the live files, one worker
  // per task. The live trees keep serving queries; nothing is mutated
  // yet. Workers touch only their own task and output slot, never guarded
  // members. Each builds its pack span in a private child trace, spliced
  // back under the refresh trace when its task ends.
  std::vector<std::unique_ptr<PackedRTree>> built(tasks.size());
  obs::TraceHandoff handoff;
  Status status = ParallelFor(
      tasks.size(), ResolvedRefreshThreads(tasks.size()),
      [&](size_t i, CancelFlag* cancel) -> Status {
        obs::TraceHandoff::Adopt adopt(handoff);
        const RefreshTask& task = tasks[i];
        obs::Span pack(pack_span);
        pack.Annotate("tree", static_cast<uint64_t>(task.tree));
        RTreeOptions tree_options = options_.rtree;
        tree_options.dims = plan_.trees[task.tree].dims;
        CT_ASSIGN_OR_RETURN(
            built[i], PackedRTree::Build(task.path, tree_options, pool_,
                                         task.source.get(), ArityFn(),
                                         io_stats_, cancel));
        pack.Annotate("points", built[i]->num_points());
        CT_FAULT("forest.refresh.build");
        if (task.delta && built[i]->num_points() == 0) {
          // Nothing in this tree's increment; drop the empty file.
          built[i].reset();
          CT_RETURN_NOT_OK(RemoveFileIfExists(task.path));
          CT_RETURN_NOT_OK(RemoveChecksumSidecar(task.path));
        }
        return Status::OK();
      });
  // The inputs (and the old trees a merge scanned) are no longer needed.
  for (RefreshTask& task : tasks) task.source.reset();

  // Phase 2: the durable manifest swap — the commit point.
  std::vector<uint32_t> generations = generations_;
  std::vector<std::vector<uint32_t>> deltas = delta_generations_;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const RefreshTask& task = tasks[i];
    if (!task.delta) {
      generations[task.tree] = task.generation;
      deltas[task.tree].clear();
    } else if (built[i] != nullptr) {
      deltas[task.tree].push_back(task.generation);
    }
  }
  if (status.ok()) {
    obs::Span commit_span("refresh.manifest_commit");
    status = SaveManifestDurable(generations, deltas);
  }
  if (!status.ok()) {
    // Clean abort: delete every task's output — completed packs and the
    // partial file of a failed or cancelled worker alike — and any
    // unrenamed manifest draft, leaving the live state alone.
    built.clear();
    for (const RefreshTask& task : tasks) {
      RemoveBestEffort(task.path, "refresh abort");
      RemoveBestEffort(ChecksumSidecarPath(task.path), "refresh abort");
    }
    RemoveBestEffort(ManifestPath() + ".tmp", "refresh abort");
    return status;
  }

  // Phase 3: the manifest now names the new generation — install fresh
  // Cubetree objects and publish a new epoch. The previous epoch's objects
  // are never mutated: readers pinned to it keep serving the old trees
  // until their snapshots drop, at which point the retired files are
  // reclaimed (PublishState arms the tokens).
  for (size_t i = 0; i < tasks.size(); ++i) {
    const size_t t = tasks[i].tree;
    if (!tasks[i].delta) {
      trees_[t] = std::make_shared<Cubetree>(TreeViews(t), std::move(built[i]));
      quarantined_[t] = false;
      // Quarantined slots were nullptr in every published epoch, so their
      // ".quarantine" files are not epoch-tracked; remove them directly.
      for (const std::string& path : quarantine_files_[t]) {
        RemoveBestEffort(path, "quarantine cleanup");
      }
      quarantine_files_[t].clear();
    } else if (built[i] != nullptr) {
      // A fresh Cubetree sharing the old main and deltas plus the new one.
      auto next = std::make_shared<Cubetree>(TreeViews(t),
                                             trees_[t]->shared_rtree());
      for (const auto& old_delta : trees_[t]->shared_deltas()) {
        next->AddDelta(old_delta);
      }
      next->AddDelta(std::move(built[i]));
      trees_[t] = std::move(next);
    }
  }
  generations_ = std::move(generations);
  delta_generations_ = std::move(deltas);
  CT_FAULT("forest.refresh.commit");
  // Publishing retires the replaced files; a crash between the manifest
  // swap above and this point leaks them for recovery to sweep.
  PublishState();
  return Status::OK();
}

Status CubetreeForest::ApplyDelta(ViewDataProvider* delta_provider) {
  MutexLock refresh_lock(refresh_mu_);
  CT_RETURN_NOT_OK(RefreshableLocked());
  // Merge-pack each tree's main, pending delta trees and increment into
  // its next main generation, in one k-way merge. trees_ keeps the scanned
  // trees open until the commit replaces them.
  std::vector<RefreshTask> tasks;
  for (size_t t = 0; t < trees_.size(); ++t) {
    std::vector<std::unique_ptr<PointSource>> inputs;
    inputs.push_back(
        std::make_unique<PackedRTree::Scanner>(trees_[t]->rtree()));
    for (const auto& delta : trees_[t]->shared_deltas()) {
      inputs.push_back(std::make_unique<PackedRTree::Scanner>(delta.get()));
    }
    CT_ASSIGN_OR_RETURN(auto increment, OpenTreeSource(t, delta_provider));
    inputs.push_back(std::move(increment));
    tasks.push_back(NextTask(t,
                             std::make_unique<MergePointSource>(
                                 std::move(inputs), plan_.trees[t].dims),
                             /*delta=*/false));
  }
  return CommitGeneration(
      std::move(tasks),
      RefreshBytesLocked(RefreshKind::kApplyDelta, delta_provider),
      "refresh.merge_pack");
}

Status CubetreeForest::ApplyDeltaPartial(ViewDataProvider* delta_provider) {
  MutexLock refresh_lock(refresh_mu_);
  CT_RETURN_NOT_OK(RefreshableLocked());
  // Pack each tree's increment alone into a new delta tree.
  std::vector<RefreshTask> tasks;
  for (size_t t = 0; t < trees_.size(); ++t) {
    CT_ASSIGN_OR_RETURN(auto increment, OpenTreeSource(t, delta_provider));
    tasks.push_back(NextTask(t, std::move(increment), /*delta=*/true));
  }
  return CommitGeneration(
      std::move(tasks),
      RefreshBytesLocked(RefreshKind::kApplyDeltaPartial, delta_provider),
      "refresh.delta_pack");
}

Status CubetreeForest::Compact() {
  struct EmptyProvider : ViewDataProvider {
    Result<std::unique_ptr<RecordStream>> OpenViewStream(
        const ViewDef& view) override {
      return std::unique_ptr<RecordStream>(new MemoryRecordStream(
          {}, ViewRecordBytes(view.arity())));
    }
  } empty;
  // ApplyDelta with an empty increment folds all pending deltas in (and
  // re-checks the built/quarantine preconditions under its own lock).
  return ApplyDelta(&empty);
}

Status CubetreeForest::RebuildQuarantined(ViewDataProvider* provider) {
  MutexLock refresh_lock(refresh_mu_);
  // Bulk-build a fresh main generation of each quarantined tree from the
  // full view contents the provider supplies.
  std::vector<RefreshTask> tasks;
  for (size_t t = 0; t < trees_.size(); ++t) {
    if (!quarantined_[t]) continue;
    CT_ASSIGN_OR_RETURN(auto source, OpenTreeSource(t, provider));
    tasks.push_back(NextTask(t, std::move(source), /*delta=*/false));
  }
  if (tasks.empty()) return Status::OK();
  return CommitGeneration(
      std::move(tasks),
      RefreshBytesLocked(RefreshKind::kRebuildQuarantined, provider),
      "refresh.rebuild_pack");
}

Result<bool> CubetreeForest::QuarantineForCorruption(
    uint32_t view_id, const std::string& file_path, const Status& why) {
  MutexLock lock(refresh_mu_);
  auto it = plan_.view_to_tree.find(view_id);
  if (it == plan_.view_to_tree.end() || it->second >= trees_.size()) {
    return Status::NotFound("forest: unknown view id " +
                            std::to_string(view_id));
  }
  const size_t t = it->second;
  if (quarantined_[t]) return false;
  if (!file_path.empty()) {
    // The corrupt file already left the live generation (a refresh
    // replaced it since the caller read from it); its epoch dies with the
    // last snapshot pinning it, so there is nothing left to repair.
    const std::vector<std::string> live = TreeFilesLocked(t);
    if (std::find(live.begin(), live.end(), file_path) == live.end()) {
      return false;
    }
  }
  CT_LOG(Warn) << "forest: quarantining tree " << t << " for corruption: "
               << why.ToString();
  QuarantineTree(t, why, nullptr);
  // Publish immediately: in-flight queries keep their pinned snapshots,
  // but every re-route from here on skips the quarantined views.
  PublishState();
  static obs::Counter* const quarantines =
      obs::MetricsRegistry::Instance().GetCounter(
          "forest.corruption_quarantines");
  quarantines->Increment();
  return true;
}

bool CubetreeForest::IsViewQuarantined(uint32_t view_id) const {
  auto it = plan_.view_to_tree.find(view_id);
  if (it == plan_.view_to_tree.end()) return false;
  MutexLock lock(refresh_mu_);
  return it->second < quarantined_.size() && quarantined_[it->second];
}

size_t CubetreeForest::NumQuarantinedTreesLocked() const {
  size_t total = 0;
  for (bool q : quarantined_) total += q ? 1 : 0;
  return total;
}

size_t CubetreeForest::NumQuarantinedTrees() const {
  MutexLock lock(refresh_mu_);
  return NumQuarantinedTreesLocked();
}

Result<std::map<uint32_t, uint64_t>> CubetreeForest::CountPointsPerView() {
  MutexLock lock(refresh_mu_);
  std::map<uint32_t, uint64_t> counts;
  for (const ViewDef& v : views_) counts[v.id] = 0;
  for (size_t t = 0; t < trees_.size(); ++t) {
    if (trees_[t] == nullptr) continue;
    auto scan_tree = [&counts](PackedRTree* rtree) -> Status {
      PackedRTree::Scanner scanner(rtree);
      const PointRecord* record = nullptr;
      while (true) {
        CT_RETURN_NOT_OK(scanner.Next(&record));
        if (record == nullptr) break;
        ++counts[record->view_id];
      }
      return Status::OK();
    };
    CT_RETURN_NOT_OK(scan_tree(trees_[t]->rtree()));
    for (size_t d = 0; d < trees_[t]->num_deltas(); ++d) {
      CT_RETURN_NOT_OK(scan_tree(trees_[t]->delta(d)));
    }
  }
  return counts;
}

size_t CubetreeForest::TotalDeltas() const {
  MutexLock lock(refresh_mu_);
  size_t total = 0;
  for (const auto& tree : trees_) {
    if (tree) total += tree->num_deltas();
  }
  return total;
}

Result<std::shared_ptr<Cubetree>> CubetreeForest::TreeForView(
    uint32_t view_id) {
  auto it = plan_.view_to_tree.find(view_id);
  if (it == plan_.view_to_tree.end()) {
    return Status::NotFound("forest: view not materialized");
  }
  MutexLock lock(refresh_mu_);
  if (it->second < quarantined_.size() && quarantined_[it->second]) {
    return Status::Unavailable("forest: view " + std::to_string(view_id) +
                               " is quarantined awaiting rebuild");
  }
  return trees_[it->second];
}

Result<const ViewDef*> CubetreeForest::view(uint32_t view_id) const {
  auto it = views_by_id_.find(view_id);
  if (it == views_by_id_.end()) {
    return Status::NotFound("forest: unknown view id");
  }
  return &it->second;
}

uint64_t CubetreeForest::TotalSizeBytes() const {
  MutexLock lock(refresh_mu_);
  return TotalSizeBytesLocked();
}

uint64_t CubetreeForest::TotalSizeBytesLocked() const {
  uint64_t total = 0;
  for (const auto& tree : trees_) {
    if (tree) total += tree->TotalSizeBytes();
  }
  return total;
}

uint64_t CubetreeForest::ReclaimSpace() {
  MutexLock lock(refresh_mu_);
  return ReclaimSpaceLocked();
}

uint64_t CubetreeForest::ReclaimSpaceLocked() {
  // Recovery's orphan classifier, with one extra guard: a file with a live
  // TrackedFile token is referenced by some epoch — possibly a retired one
  // a reader still pins — and must survive. The GC counters are left
  // alone; they describe the deferred-unlink backlog, not this sweep.
  std::set<std::string> tracked;
  {
    MutexLock gc_lock(gc_->mu);
    tracked = gc_->tracked_paths;
  }
  auto sweep = OrphanFilesLocked(tracked);
  if (!sweep.ok()) return 0;
  uint64_t reclaimed = 0;
  for (const std::string& path : *sweep) {
    struct stat st;
    const uint64_t bytes =
        ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
    Status removed = RemoveFileIfExists(path);
    if (!removed.ok()) {
      CT_LOG(Warn) << "forest: space reclaim: " << removed.ToString();
      continue;
    }
    CT_LOG(Info) << "forest: space reclaim: removed " << path << " (" << bytes
                 << " bytes)";
    reclaimed += bytes;
  }
  return reclaimed;
}

unsigned CubetreeForest::ResolvedRefreshThreads(size_t num_tasks) const {
  const unsigned configured = options_.refresh_threads != 0
                                  ? options_.refresh_threads
                                  : RefreshThreadsFromEnv();
  if (num_tasks == 0) return 1;
  return static_cast<unsigned>(
      std::min<size_t>(std::max(configured, 1u), num_tasks));
}

uint64_t CubetreeForest::RefreshBytes(RefreshKind kind,
                                      const ViewDataProvider* input) const {
  MutexLock lock(refresh_mu_);
  return RefreshBytesLocked(kind, input);
}

uint64_t CubetreeForest::RefreshBytesLocked(
    RefreshKind kind, const ViewDataProvider* input) const {
  // A merge-pack rewrites every live tree beside its current generation; a
  // partial refresh packs only the increment; a rebuild packs the
  // quarantined trees, whose old files are already set aside.
  const uint64_t live =
      kind == RefreshKind::kApplyDelta ? TotalSizeBytesLocked() : 0;
  const size_t packs = kind == RefreshKind::kRebuildQuarantined
                           ? NumQuarantinedTreesLocked()
                           : trees_.size();
  return EstimateRefreshBytes(
      live, input == nullptr ? 0 : input->EstimatedInputBytes(),
      ResolvedRefreshThreads(packs));
}

Status CubetreeForest::PreflightRefreshLocked(uint64_t estimated_bytes) {
  DiskSpaceManager disk(
      DiskSpaceManager::Options{options_.dir, options_.disk_reserve_bytes});
  Status space = disk.Preflight(estimated_bytes);
  if (space.IsStorageFull()) {
    // Make room before refusing: sweep crash debris and files whose
    // deferred unlink was vetoed or failed, then probe again.
    const uint64_t reclaimed = ReclaimSpaceLocked();
    if (reclaimed > 0) {
      CT_LOG(Info) << "forest: refresh preflight reclaimed " << reclaimed
                   << " bytes, re-probing";
      space = disk.Preflight(estimated_bytes);
    }
  }
  return space;
}

uint64_t CubetreeForest::TotalPoints() const {
  MutexLock lock(refresh_mu_);
  uint64_t total = 0;
  for (const auto& tree : trees_) {
    if (tree) total += tree->TotalPoints();
  }
  return total;
}

void CubetreeForest::PublishState() {
  using forest_internal::EpochState;
  using forest_internal::TrackedFile;
  obs::Span publish_span("refresh.publish");
  Timer publish_timer;
  std::shared_ptr<EpochState> old = LoadPublished();
  auto next = std::make_shared<EpochState>();
  next->epoch = next_epoch_++;
  next->gc = gc_;
  next->view_to_tree = plan_.view_to_tree;
  next->quarantined = quarantined_;
  next->trees = trees_;
  // File-reclamation tokens: carry over the token of every file still live
  // (so one file has one token across all epochs that reference it), mint
  // tokens for new files.
  std::map<std::string, std::shared_ptr<TrackedFile>> old_tokens;
  if (old != nullptr) {
    for (const auto& file : old->files) old_tokens[file->path()] = file;
  }
  std::set<std::string> live_paths;
  for (const auto& tree : trees_) {
    if (tree == nullptr) continue;
    live_paths.insert(tree->rtree()->path());
    for (const auto& delta : tree->shared_deltas()) {
      live_paths.insert(delta->path());
    }
  }
  for (const std::string& path : live_paths) {
    auto it = old_tokens.find(path);
    next->files.push_back(it != old_tokens.end()
                              ? it->second
                              : std::make_shared<TrackedFile>(path, gc_));
  }
  {
    MutexLock lock(gc_->mu);
    gc_->live_epoch = next->epoch;
    if (old != nullptr) gc_->pinned_retired_epochs.insert(old->epoch);
  }
  if (old != nullptr) old->retired.store(true, std::memory_order_relaxed);
  const uint64_t published_epoch = next->epoch;
  // The outgoing state stays alive in `old`, so nothing is destroyed under
  // the publish lock.
  SwapPublished(std::move(next));
  // Retire files the new generation dropped — after the swap, so a
  // throw/crash injected at the GC failpoint leaves the commit published
  // (files then leak to recovery, exactly as a crash between commit and GC
  // always has).
  if (old != nullptr) {
    for (const auto& file : old->files) {
      if (live_paths.find(file->path()) == live_paths.end()) file->Retire();
    }
  }
  auto& reg = obs::MetricsRegistry::Instance();
  static obs::Histogram* const publish_latency =
      reg.GetHistogram("forest.publish_latency_us");
  static obs::Gauge* const live_epoch = reg.GetGauge("forest.live_epoch");
  publish_latency->Record(publish_timer.ElapsedMicros());
  live_epoch->Set(static_cast<int64_t>(published_epoch));
}

std::shared_ptr<forest_internal::EpochState> CubetreeForest::LoadPublished()
    const {
  MutexLock lock(published_mu_);
  return published_;
}

std::shared_ptr<forest_internal::EpochState> CubetreeForest::SwapPublished(
    std::shared_ptr<forest_internal::EpochState> next) {
  MutexLock lock(published_mu_);
  published_.swap(next);
  return next;
}

ForestSnapshot CubetreeForest::AcquireSnapshot() const {
  return ForestSnapshot(LoadPublished());
}

ForestGcStats CubetreeForest::GcStats() const {
  MutexLock lock(gc_->mu);
  ForestGcStats stats;
  stats.live_epoch = gc_->live_epoch;
  stats.pinned_epochs = gc_->pinned_retired_epochs.size();
  stats.unreclaimed_files = gc_->unreclaimed_files;
  stats.reclaimed_files = gc_->reclaimed_files;
  return stats;
}

std::vector<std::string> CubetreeForest::LiveFiles() const {
  std::vector<std::string> paths;
  auto state = LoadPublished();
  if (state == nullptr) return paths;
  paths.reserve(state->files.size());
  for (const auto& file : state->files) paths.push_back(file->path());
  return paths;
}

Status CubetreeForest::Destroy() {
  MutexLock refresh_lock(refresh_mu_);
  // Drop the published epoch first (snapshots must already be released per
  // the API contract); its tokens are unretired, so this deletes nothing —
  // the explicit removal below does.
  SwapPublished(nullptr);
  for (size_t t = 0; t < trees_.size(); ++t) {
    if (!trees_[t]) continue;
    const std::vector<std::string> paths = TreeFilesLocked(t);
    trees_[t].reset();
    for (const std::string& path : paths) {
      CT_RETURN_NOT_OK(RemoveFileIfExists(path));
      CT_RETURN_NOT_OK(RemoveChecksumSidecar(path));
    }
  }
  trees_.clear();
  for (const auto& files : quarantine_files_) {
    for (const std::string& path : files) {
      CT_RETURN_NOT_OK(RemoveFileIfExists(path));
    }
  }
  quarantine_files_.clear();
  quarantined_.clear();
  CT_RETURN_NOT_OK(RemoveFileIfExists(ManifestPath() + ".tmp"));
  return RemoveFileIfExists(ManifestPath());
}

}  // namespace cubetree
