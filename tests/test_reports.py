"""Pinned report bytes: exact reports must not change by a single byte.

Each report is produced in-process through cli.main; its "timestamp" field is
stripped and the sha256 of the rest compared with the pinned digest.  These
reports hold no floats, so the digests do not depend on the platform.
"""

import hashlib
import re

import pytest

from kronlab import cli

PINNED = {
    "verify --level 1 --suite identity --kmax 14":
        "270273cb9bd3b8d532a85f7df16e1d7f07110cc7bf3c5fa7c98eee42f5f4d71e",
    "verify --level 5 --char 1 --suite identity --kmax 6":
        "93bc2302e1129299d5e5caf6c64f279d41af9d9cdd9bcd65350bdf60a620ed3c",
    # order-6 Cyclotomic coefficients
    "expand --level 13 --char 6 --product --kmax 8 --qprec 30":
        "c3352592b8434562eaeb3e679ab714be7315aec00b9cd3516025662774d5916d",
    # order-3 Cyclotomic coefficients
    "expand --level 7 --char 3 --product --kmax 10 --qprec 25":
        "ec02127a986bdfc2353ce08279e2989007e4148b4bc0790c7b82b3b4d345d282",
    "expand --level 5 --char 1 --product --kmax 8":
        "c9cf18f691e3ebd4c525203a25bdd74de13734dfb6dbb4d752cb2b117276312a",
    "periods --level 5 --weight 4 --form eis --eps -1 --twisted":
        "1962efa4673c743bde4ef67a04befefc217926a16ec7e1b1f578556eb9fed897",
    "periods --level 1 --weight 4 --form eis":
        "4628e495b81485e4e3afebb913414bd7c06e4f6278dd7e106e34f92beb518be1",
    "periods --level 1 --weight 12 --form eis":
        "4fe3d644244178fe83135f80445e3c7cc41ad40dbb54bb929e091d202e567529",
    "periods --level 5 --weight 4 --form eis --eps 1":
        "74d6332e4cd7524c007ddf64ffb013b48c6637208df37423d64f872d034a282e",
    # "even": {} next to "even_unit": "omega_plus": the coefficients cancel
    "periods --level 5 --weight 2 --form eis --eps -1":
        "8c78d2cdf6d4220376721f634be435410478e0c71075b843035f2e1ffd17bba5",
    # an order-26 Cyclotomic coefficient (the Gauss sum of the quadratic character)
    "periods --level 13 --weight 4 --form eis --eps -1 --twisted":
        "d344c8b5a2becb5ba1e8d6a833e3b0ed97b54ad35bd79543cbca1dfc243db170",
    # two and three primes: period_eisenstein's sum over d | N mixes signs
    # and has a key e = -1
    "periods --level 15 --weight 4 --form eis --eps 1":
        "d3e0b5c87cb275abe21adb4a8e51dc7dd9707fdb4244da1f3b7a29b7e9ee3a76",
    "periods --level 105 --weight 6 --form eis --twisted":
        "f4d4f6362a7b63bb822d99dbbf85c28562a2f47978fc5d39f1c05ff54d330eef",
    # order-8 Cyclotomic coefficients
    "expand --level 17 --char 6 --product --kmax 8":
        "241f2da768852aef94dc9cd5bc30803112071ebbe084736062fc7213de0b4235",
    # order-20 Cyclotomic coefficients, 8 slots each
    "expand --level 41 --char 16 --product --kmax 6 --qprec 20":
        "63783d259fc3c979a38d012136335e4ba58e4a9b1cd61e43d23a3506bef214d7",
    # a Laurent jet over Q(zeta_6): every nonzero coefficient reads as an
    # order-6 Cyclotomic, rational-valued ones included
    "expand --level 13 --char 6 --qprec 20 --deg 8":
        "736e71f044d3c0a0d1bf79a2c900b499c398ad14379d2f42479249a460720fd8",
    # order-6 character: complex slice rows, so no real-character reuse applies
    "verify --level 13 --char auto --suite identity --kmax 2":
        "c3e0a6fb5c2c69f59657ef8ec775af74e337c34aebdae72a4ddd4755d2631b75",
    "verify --level 7 --char auto --suite identity --kmax 4":
        "92e1d2e8d0aa9007791b0ff8be2af516228be604675b19890165398c4f0889ea",
    # the last level-1 weight of rank one
    "verify --level 1 --suite identity --kmax 22 --qprec 40":
        "2c195454310e2863183984ab225890e45f15fa0db836d9c534087e72d4fcbb06",
    # the identity-n1 benchmark's own command
    "verify --level 1 --suite identity --kmax 20 --qprec 60":
        "61759ab6ba1afbf471160604d29c32a573c457c4f21e4a75c75664e6d4cf4ebe",
    "expand --level 1 --product --kmax 20 --qprec 60":
        "0d4e6f6dddc7d96eba4fa93d0aa3893bc255494f843852e7365ceb53f21a7d22",
    # exits 1: the k = 4 cusp part is a Galois mixture over Q(zeta_6)
    "verify --level 13 --char 6 --suite identity --kmax 4":
        "22a2d8a146bed586f4090ccc4a393c624b0ea744feb15d65ac9eac8837e34ea0",
    # exits 1: a two-prime level, four sign characters and four W_M cusp
    # values per monomial
    "verify --level 15 --char auto --suite identity --kmax 4":
        "f36c89096de68c591da0046ab112b60389a35e7d11318c26eea6032cce676271",
    # exits 1: order-20 Eisenstein multipliers
    "verify --level 41 --char 16 --suite identity --kmax 4 --qprec 20":
        "5fa77adf902bddbe99716490fc447f738b3ecb7ba1944f11dac3862e91437083",
    # exits 1: a three-prime level, eight sign characters and eight W_M cusp
    # values per monomial
    "verify --level 105 --char auto --suite identity --kmax 4":
        "ec387b67776b22c9da5c974be80e2e89ee820b84b4d30923e48a0396ce451fea",
}

# the exit code of a pinned command that does not exit 0
EXIT_CODES = {
    "verify --level 13 --char 6 --suite identity --kmax 4": 1,
    "verify --level 15 --char auto --suite identity --kmax 4": 1,
    "verify --level 41 --char 16 --suite identity --kmax 4 --qprec 20": 1,
    "verify --level 105 --char auto --suite identity --kmax 4": 1,
}


@pytest.mark.parametrize("command", list(PINNED))
def test_report_bytes_are_pinned(command, capsys):
    assert cli.main(command.split()) == EXIT_CODES.get(command, 0)
    text = re.sub(r'"timestamp": "[^"]*"', "", capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[command]
