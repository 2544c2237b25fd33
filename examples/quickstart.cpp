// Quickstart: the Haechi public API from the ground up — no experiment
// harness. Builds a two-node simulated RDMA cluster, a memory-resident KV
// store, a QoS monitor with one admitted client, wires a client QoS engine
// to the store, performs a few thousand token-gated one-sided GETs, and
// prints the token-accounting evidence.
//
//   ./quickstart
#include <cstdio>

#include "core/engine.hpp"
#include "core/monitor.hpp"
#include "kvstore/client.hpp"
#include "kvstore/server.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

using namespace haechi;

int main() {
  // 1. A simulator and a fabric with the paper-calibrated timing model
  //    (C_L = 400 KIOPS per client, C_G = 1570 KIOPS at the data node).
  sim::Simulator sim;
  net::ModelParams params;
  params.capacity_scale = 0.02;  // 2% scale keeps this demo instant
  rdma::Fabric fabric(sim, params, /*seed=*/1);
  rdma::Node& data_node = fabric.AddNode("data-node", rdma::NodeRole::kData);
  rdma::Node& client_node = fabric.AddNode("client-1");

  // 2. The key-value store on the data node: records live in registered
  //    memory, so a GET is a single one-sided READ.
  kvstore::KvServer server(data_node,
                           {.record_count = 1024, .payload_bytes = 4096});
  server.PopulateDeterministic();

  // 3. The QoS monitor: admission control + token management + Algorithm 1.
  core::QosConfig qos;  // paper defaults: T=1s, delta=1ms, B=1000
  qos.token_batch = 100;
  // This demo keeps payload copying ON (every GET moves real bytes), so
  // the engine's issue-ahead depth must fit the KV client's buffer pool.
  qos.max_backend_outstanding = 128;
  core::QosMonitor monitor(sim, qos, data_node,
                           params.GlobalCapacityIops(),
                           params.LocalCapacityIops());

  // 4. Wire one client: a data QP for GETs, a QoS QP for the engine's
  //    silent FAA/report ops, and a control QP for the monitor's messages.
  auto& data_cq = client_node.CreateCq();
  auto& data_srv_cq = data_node.CreateCq();
  auto& data_qp = client_node.CreateQp(data_cq, data_cq, 1u << 20);
  auto& data_srv_qp = data_node.CreateQp(data_srv_cq, data_srv_cq);
  fabric.Connect(data_qp, data_srv_qp);

  auto& qos_cq = client_node.CreateCq();
  auto& qos_srv_cq = data_node.CreateCq();
  auto& qos_qp = client_node.CreateQp(qos_cq, qos_cq);
  auto& qos_srv_qp = data_node.CreateQp(qos_srv_cq, qos_srv_cq);
  fabric.Connect(qos_qp, qos_srv_qp);

  auto& ctrl_cq = client_node.CreateCq();
  auto& ctrl_recv_cq = client_node.CreateCq();
  auto& ctrl_srv_cq = data_node.CreateCq();
  auto& ctrl_qp = client_node.CreateQp(ctrl_cq, ctrl_recv_cq);
  auto& ctrl_srv_qp = data_node.CreateQp(ctrl_srv_cq, ctrl_srv_cq);
  fabric.Connect(ctrl_qp, ctrl_srv_qp);

  // 5. Admission: reserve 10 KIOPS for this client (well inside both
  //    capacity constraints at 2% scale: C_G ≈ 31.4K, C_L = 8K... so use
  //    6 KIOPS to respect the local constraint).
  const auto client_id = MakeClientId(0);
  auto wiring = monitor.AdmitClient(client_id, /*reservation=*/6000,
                                    /*limit=*/0, ctrl_srv_qp);
  if (!wiring.ok()) {
    std::fprintf(stderr, "admission failed: %s\n",
                 wiring.status().ToString().c_str());
    return 1;
  }
  std::printf("admitted: reservation 6000 IOPS of %lld total\n",
              static_cast<long long>(monitor.admission().AggregateCapacity()));

  // 6. The client QoS engine, backed by the KV client.
  kvstore::KvClient kv(client_node, data_qp, server.view(), {});
  core::ClientQosEngine engine(sim, client_id, qos, client_node, qos_qp,
                               ctrl_qp, wiring.value());
  engine.SetIoBackend([&kv](std::uint64_t key, bool /*is_write*/,
                            core::ClientQosEngine::IoDone done) {
    return kv.GetOneSided(key, [done](const kvstore::KvClient::Completion& c) {
      if (!c.status.ok()) {
        std::fprintf(stderr, "GET failed: %s\n", c.status.ToString().c_str());
      }
      done();
    });
  });

  // 7. Run: the monitor starts QoS periods; the app submits 8000 GETs at
  //    t=0 (above the reservation — the excess draws global pool tokens).
  monitor.Start(0);
  sim.ScheduleAt(Millis(1), [&] {
    for (std::uint64_t i = 0; i < 8000; ++i) {
      const Status s = engine.Submit(i % 1024, [] {});
      if (!s.ok()) break;
    }
  });
  sim.RunUntil(Seconds(2));

  // 8. Evidence: tokens consumed by source, silent control-plane traffic.
  const auto& st = engine.stats();
  std::printf("completed I/Os:        %lld\n",
              static_cast<long long>(st.completed_total));
  std::printf("reservation tokens:    %lld\n",
              static_cast<long long>(st.tokens_from_reservation));
  std::printf("global-pool tokens:    %lld (fetched with %llu remote FAAs, "
              "batch=%lld)\n",
              static_cast<long long>(st.tokens_from_pool),
              static_cast<unsigned long long>(st.faa_ops),
              static_cast<long long>(qos.token_batch));
  std::printf("silent report writes:  %llu (8-byte one-sided WRITEs)\n",
              static_cast<unsigned long long>(st.report_writes));
  std::printf("monitor conversions:   %llu, capacity estimate %lld\n",
              static_cast<unsigned long long>(monitor.stats().conversions),
              static_cast<long long>(monitor.estimator().Estimate()));
  std::printf("data-node CPU was involved in 0 of the %lld data I/Os\n",
              static_cast<long long>(st.completed_total));
  return 0;
}
