/* Seeded counterexample for repro-lint's CI007 after a failing
 * directive (kept out of the CI glob on purpose):
 * clause_fails_before_clean_ring.c with the clean second ring lowered
 * to SHMEM. The first ring's receiver fails on rank 2 alone, so the
 * run aborts there and the second ring never runs. repro-lint reports
 * one CI004 naming the receiver clause on rank 2 and nothing at line
 * 20: pairing the SHMEM ring's halves against the first ring's missing
 * ones on other lowerings is not a CI007 (nor a CI002/CI003), and
 * the CI007 the shifted pairing would name are phantoms.
 * Any world of three or more ranks shows it. */
double a[8];
double b[8];
double c[8];
double d[8];
int rank, nprocs;

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs+0*(1%(rank-2))) sbuf(a) rbuf(b)
{
}
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(c) rbuf(d) target(TARGET_COMM_SHMEM)
{
}
consume(b);
consume(d);
