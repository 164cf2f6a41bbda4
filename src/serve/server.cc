#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace fgpdb {
namespace serve {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity) {
  FGPDB_CHECK(options_.database != nullptr)
      << "ServerOptions.database is required";
  FGPDB_CHECK(options_.proposal_factory != nullptr)
      << "ServerOptions.proposal_factory is required";
  FGPDB_CHECK_GT(options_.quantum_samples, 0u);
  FGPDB_CHECK_GT(options_.max_outstanding_samples, 0u);
  const size_t threads = options_.num_threads > 0
                             ? options_.num_threads
                             : ThreadPool::DefaultThreadCount(
                                   std::max<size_t>(options_.max_tenants, 1));
  pool_ = std::make_unique<ThreadPool>(threads);
}

Server::~Server() {
  // Finish admitted work first (the Drain contract), then refuse new
  // submissions and join the pool — after Drain no task is queued or
  // running, so the workers exit immediately.
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  pool_.reset();
}

Status Server::CreateTenant(TenantId* id, TenantOptions tenant_options) {
  FGPDB_CHECK(id != nullptr);
  // Session::Open and the chains it drives CHECK-fail on these; a bad
  // request must not take the server down.
  const api::ExecutionPolicy& policy = tenant_options.policy;
  if (policy.mode == api::ExecutionPolicy::Mode::kUntil) {
    // Comparisons are written so that NaN fails them.
    if (!(policy.confidence > 0.0 && policy.confidence < 1.0)) {
      return Status::InvalidArgument("UNTIL confidence must be in (0, 1)");
    }
    if (!(std::isfinite(policy.eps) && policy.eps > 0.0)) {
      return Status::InvalidArgument("UNTIL eps must be finite and > 0");
    }
  }
  if ((policy.mode == api::ExecutionPolicy::Mode::kUntil ||
       policy.mode == api::ExecutionPolicy::Mode::kParallel) &&
      policy.num_chains == 0) {
    return Status::InvalidArgument("the policy needs at least one chain");
  }
  if (policy.num_shards > 1) {
    // A server holds a proposal factory, not a shard plan.
    return Status::InvalidArgument("the server runs unsharded chains only");
  }
  auto tenant = std::make_shared<Tenant>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return Status::Unavailable("server is shutting down");
    if (tenants_.size() >= options_.max_tenants) {
      return Status::Unavailable("tenant limit reached (" +
                                 std::to_string(options_.max_tenants) + ")");
    }
    tenant->id = next_tenant_id_++;
  }
  tenant->name = tenant_options.name.empty()
                     ? "tenant-" + std::to_string(tenant->id)
                     : tenant_options.name;
  tenant->stats.name = tenant->name;
  // Session::Open snapshots the shared base world (COW) — tenant state
  // never touches the server's database or any sibling tenant.
  api::SessionOptions session_options;
  session_options.database = options_.database;
  session_options.model = options_.model;
  session_options.plan_cache = &plan_cache_;
  session_options.proposal_factory = options_.proposal_factory;
  session_options.evaluator = tenant_options.has_evaluator
                                  ? tenant_options.evaluator
                                  : options_.evaluator;
  session_options.policy = tenant_options.policy;
  tenant->session = api::Session::Open(std::move(session_options));
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenants_.emplace(tenant->id, tenant);
  }
  *id = tenant->id;
  return Status::Ok();
}

std::shared_ptr<Server::Tenant> Server::FindTenant(TenantId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

Status Server::CloseTenant(TenantId id) {
  std::shared_ptr<Tenant> tenant = FindTenant(id);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant " + std::to_string(id));
  }
  std::unique_lock<std::mutex> lock(mu_);
  tenant->closing = true;
  idle_cv_.wait(lock, [&] { return !tenant->queued && tenant->pending == 0; });
  tenants_.erase(id);
  // The Session is destroyed when the last shared_ptr drops — possibly
  // here, possibly after an in-flight Snapshot holder releases.
  return Status::Ok();
}

Status Server::RegisterQuery(TenantId id, const std::string& sql,
                             QueryId* query) {
  FGPDB_CHECK(query != nullptr);
  std::shared_ptr<Tenant> tenant = FindTenant(id);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant " + std::to_string(id));
  }
  std::lock_guard<std::mutex> chain_lock(tenant->chain_mu);
  // Prepare reads through the cross-session cache; Register attaches the
  // view to the tenant's chain (legal mid-run).
  api::ResultHandle handle = tenant->session->Register(sql);
  tenant->queries.push_back(handle);
  *query = tenant->queries.size() - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenant->stats.num_queries = tenant->queries.size();
  }
  return Status::Ok();
}

void Server::ScheduleLocked(const std::shared_ptr<Tenant>& tenant) {
  // `closing` does NOT stop scheduling: CloseTenant's contract is to
  // drain the backlog, and that takes quanta. It only stops new Submits.
  if (tenant->queued || tenant->pending == 0) return;
  tenant->queued = true;
  // The pool queue is FIFO, and every task re-enqueues its tenant at the
  // BACK after one quantum — that queue discipline IS the fair scheduler.
  pool_->Submit([this, tenant] { RunQuantumTask(tenant); });
}

void Server::RunQuantumTask(std::shared_ptr<Tenant> tenant) {
  uint64_t quantum = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    quantum = std::min<uint64_t>(options_.quantum_samples, tenant->pending);
  }
  uint64_t drawn = 0;
  bool converged = false;
  Stopwatch timer;
  if (quantum > 0) {
    std::lock_guard<std::mutex> chain_lock(tenant->chain_mu);
    drawn = tenant->session->RunQuantum(quantum);
    converged = tenant->session->converged();
  }
  const double seconds = timer.ElapsedSeconds();

  std::lock_guard<std::mutex> lock(mu_);
  tenant->stats.samples_drawn += drawn;
  tenant->stats.quanta += 1;
  tenant->stats.converged = converged;
  metrics_.quanta_executed += 1;
  metrics_.samples_drawn += drawn;
  metrics_.quantum_latency.RecordSeconds(seconds);
  tenant->pending -= std::min(tenant->pending, drawn);
  if (tenant->pending > 0 && (converged || drawn == 0)) {
    // Convergence yield (PR 6's state as admission/preemption signal): the
    // tenant's bound holds, so its remaining budget is retired as served —
    // the slot goes to tenants that still need samples. (drawn == 0
    // without convergence cannot happen for any current policy; retiring
    // is the livelock-free response if a future one does it.)
    metrics_.converged_yields += 1;
    tenant->stats.yielded += tenant->pending;
    tenant->pending = 0;
  }
  tenant->queued = false;
  if (tenant->pending > 0) {
    ScheduleLocked(tenant);
  } else {
    idle_cv_.notify_all();
  }
}

Status Server::Submit(TenantId id, uint64_t samples) {
  if (samples == 0) {
    return Status::InvalidArgument("submission must request samples");
  }
  std::shared_ptr<Tenant> tenant = FindTenant(id);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant " + std::to_string(id));
  }
  std::lock_guard<std::mutex> lock(mu_);
  // stats.num_queries is kept under mu_; the session's own registry is
  // appended to under chain_mu and cannot be read here.
  if (tenant->stats.num_queries == 0) {
    return Status::InvalidArgument("tenant has no registered queries");
  }
  if (tenant->closing || shutting_down_) {
    return Status::Unavailable("tenant is closing");
  }
  // pending <= cap always holds, so the subtraction cannot wrap where the
  // sum pending + samples could.
  if (samples > options_.max_outstanding_samples - tenant->pending) {
    tenant->stats.rejected += 1;
    metrics_.submissions_rejected += 1;
    return Status::Overloaded(
        "outstanding " + std::to_string(tenant->pending) + " + " +
        std::to_string(samples) + " exceeds cap " +
        std::to_string(options_.max_outstanding_samples));
  }
  tenant->pending += samples;
  tenant->stats.submitted += samples;
  metrics_.submissions_admitted += 1;
  ScheduleLocked(tenant);
  return Status::Ok();
}

Status Server::Snapshot(TenantId id, QueryId query, api::QueryProgress* out) {
  FGPDB_CHECK(out != nullptr);
  Stopwatch timer;
  std::shared_ptr<Tenant> tenant = FindTenant(id);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant " + std::to_string(id));
  }
  {
    // The streaming read: waits at most one quantum for the chain lock,
    // copies the progress, releases — the chain keeps running.
    std::lock_guard<std::mutex> chain_lock(tenant->chain_mu);
    if (query >= tenant->queries.size()) {
      return Status::NotFound("tenant " + std::to_string(id) + " has no query " +
                              std::to_string(query));
    }
    *out = tenant->queries[query].Snapshot();
  }
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.snapshots_served += 1;
  metrics_.snapshot_latency.RecordSeconds(timer.ElapsedSeconds());
  return Status::Ok();
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] {
    for (const auto& [id, tenant] : tenants_) {
      if (tenant->queued || tenant->pending > 0) return false;
    }
    return true;
  });
}

Status Server::GetTenantStats(TenantId id, TenantStats* out) const {
  FGPDB_CHECK(out != nullptr);
  std::shared_ptr<Tenant> tenant = FindTenant(id);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant " + std::to_string(id));
  }
  std::lock_guard<std::mutex> lock(mu_);
  *out = tenant->stats;
  out->pending = tenant->pending;
  return Status::Ok();
}

SchedulerMetrics Server::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

api::PlanCache::Stats Server::plan_cache_stats() const {
  return plan_cache_.stats();
}

size_t Server::num_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace serve
}  // namespace fgpdb
