// Forwarding header: the pipelined client is AuditClient (src/svc/client.h).
// The old names stay only for perfbench, which still spells them; a later
// benchmark change moves it to AuditClient and deletes this header.

#ifndef SRC_SVC_MUX_CLIENT_H_
#define SRC_SVC_MUX_CLIENT_H_

#include "src/svc/client.h"

namespace indaas {
namespace svc {

using MuxAuditClient = AuditClient;
using MuxClientOptions = AuditClientOptions;

}  // namespace svc
}  // namespace indaas

#endif  // SRC_SVC_MUX_CLIENT_H_
