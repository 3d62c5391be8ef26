"""Residue sequences that match Fourier coefficients of eta products.

Some catalog graphs have extended-graph-permanent sequences that agree,
prime by prime, with the p-th Fourier coefficient of an eta product
reduced mod p.  This script expands each recorded eta product as an
exact integer q-series and compares it against the stored row.

At primes where n*calE is odd the permanent residue is only defined up
to sign (it depends on the arbitrary edge orientation), so both rows
are put in canonical form before comparing.
"""

from egperm.catalog import load_catalog
from egperm.modform import compare, eta_expand, parse_eta_product, residue_row
from egperm.sequences import canonicalize_sign, sequence_from_row


def main() -> None:
    for entry in load_catalog():
        if entry.eta_product is None:
            continue
        product = parse_eta_product(entry.eta_product)
        series = eta_expand(product)
        primes = sorted(entry.row)
        raw = residue_row(series, primes)
        coeffs = canonicalize_sign(
            sequence_from_row(entry.name, entry.calV, entry.calE, raw)).row()
        print(f"{entry.name}: {entry.eta_product} (weight {product.weight})")
        print("  p      " + "  ".join(f"{p:>3}" for p in primes))
        print("  row    " + "  ".join(f"{entry.row[p]:>3}" for p in primes))
        print("  a_p%p  " + "  ".join(f"{coeffs[p]:>3}" for p in primes))
        print(f"  match: {compare(entry.row_sequence(), series)}")
        print()


if __name__ == "__main__":
    main()
