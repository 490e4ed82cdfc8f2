/* Seeded counterexample for repro-lint's CI004 before a clean
 * directive (kept out of the CI glob on purpose): the first ring's
 * receiver expression takes a remainder modulo rank-2, which is zero
 * on rank 2 alone, so rank 2 posts nothing there; a clean ring
 * follows. The runtime raises ClauseError on rank 2 at the first
 * directive and the run aborts, so the second ring never runs.
 * repro-lint reports one CI004 naming the receiver clause on rank 2,
 * and no deadlock at either directive: pairing the second ring's
 * halves against the first ring's missing ones is not a CI002/CI003.
 * Any world of three or more ranks shows it. */
double a[8];
double b[8];
double c[8];
double d[8];
int rank, nprocs;

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs+0*(1%(rank-2))) sbuf(a) rbuf(b)
{
}
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(c) rbuf(d)
{
}
consume(b);
consume(d);
