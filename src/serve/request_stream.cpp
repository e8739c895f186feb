#include "serve/request_stream.h"

#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string_view>

#include "workloads/general_random.h"

namespace cdbp::serve {

constexpr std::string_view kHeader = "tenant,arrival,departure,size";

StreamCsvReader::StreamCsvReader(const std::string& path)
    : file_(path), csv_(file_, "stream csv") {
  if (!file_)
    throw std::runtime_error("stream csv: cannot open '" + path + "'");
}

StreamCsvReader::StreamCsvReader(std::istream& in) : csv_(in, "stream csv") {}

bool StreamCsvReader::next(ServeRequest& req) {
  bool more = csv_.next();
  if (more && !started_ && csv_.row() == kHeader) more = csv_.next();
  started_ = true;
  if (!more) return false;
  const std::vector<std::string_view>& fields = csv_.fields();
  if (fields.size() != 4)
    csv_.fail("expected 4 fields (tenant,arrival,departure,size)");
  if (fields[0].empty()) csv_.fail("empty tenant");
  req.arrival = csv_.number(1);
  req.departure = csv_.number(2);
  req.size = csv_.number(3);
  if (rows_ > 0 && req.arrival < last_arrival_)
    csv_.fail("arrivals out of order");
  last_arrival_ = req.arrival;
  req.tenant = fields[0];
  req.stream_index = ++rows_;  // 1-based; 0 means "unknown"
  req.admit_ns = 0;
  return true;
}

namespace {

std::vector<ServeRequest> read_all(StreamCsvReader& rows) {
  std::vector<ServeRequest> out;
  for (ServeRequest req; rows.next(req);) out.push_back(std::move(req));
  return out;
}

}  // namespace

std::vector<ServeRequest> read_stream_csv(std::istream& in) {
  StreamCsvReader rows(in);
  return read_all(rows);
}

std::vector<ServeRequest> read_stream_csv(const std::string& path) {
  StreamCsvReader rows(path);
  return read_all(rows);
}

void write_stream_csv(const std::vector<ServeRequest>& stream,
                      std::ostream& out) {
  trace::CsvWriter csv(out);
  csv << kHeader << '\n';
  for (const ServeRequest& req : stream)
    csv << req.tenant << ',' << req.arrival << ',' << req.departure << ','
        << req.size << '\n';
  if (!csv.flush()) throw std::runtime_error("stream csv: write failed");
}

void write_stream_csv(const std::vector<ServeRequest>& stream,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("stream csv: cannot open '" + path +
                             "' for writing");
  write_stream_csv(stream, out);
}

std::vector<ServeRequest> generate_stream(const StreamGenConfig& config) {
  workloads::GeneralConfig gc;
  gc.shape = workloads::GeneralShape::kLogUniform;
  gc.target_items = config.target_items;
  gc.log2_mu = config.log2_mu;
  gc.horizon = config.horizon;
  std::mt19937_64 rng(config.seed);
  const Instance instance = workloads::make_general_random(gc, rng);

  std::vector<ServeRequest> out;
  out.reserve(instance.size());
  const std::size_t tenants = std::max<std::size_t>(1, config.tenants);
  std::vector<std::string> tenant_names;
  tenant_names.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    tenant_names.push_back(std::move(name));
  }
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& item = instance[i];
    ServeRequest req;
    req.tenant = tenant_names[i % tenants];
    req.stream_index = i + 1;
    req.arrival = item.arrival;
    req.departure = item.departure;
    req.size = item.size;
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace cdbp::serve
