#include "comm/halo_exchange.hpp"

namespace msc::comm {

// exchange_halo is a header template; force both element types here so
// errors surface at library build time.

template ExchangeStats exchange_halo<float>(RankCtx&, const CartDecomp&,
                                            exec::GridStorage<float>&, int,
                                            ExchangeWorkspace<float>&);
template ExchangeStats exchange_halo<double>(RankCtx&, const CartDecomp&,
                                             exec::GridStorage<double>&, int,
                                             ExchangeWorkspace<double>&);
template ExchangeStats exchange_halo<float>(RankCtx&, const CartDecomp&,
                                            exec::GridStorage<float>&, int);
template ExchangeStats exchange_halo<double>(RankCtx&, const CartDecomp&,
                                             exec::GridStorage<double>&, int);

}  // namespace msc::comm
