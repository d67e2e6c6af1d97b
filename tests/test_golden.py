"""Byte-for-byte golden check of the JSON documents the command line writes.

The JSON exchange format is the contract, so refactors of the formula code
must leave every document unchanged.  The sha256 digests of stdout were
recorded from the multiset-of-partitions implementation that preceded the
truncated-log route, except those at genus 0, (g, r) = (0, 1): they were
recorded when e_poly began to serve that surface (E_1 = 1 and E_n = 0
beyond), and euler there prints what its rational-function route printed
before.  The text, LaTeX (in xy)
and CSV renderings of four epoly/component documents were recorded from the
rational-function log route that preceded the integer one.
"""

import contextlib
import hashlib
import io

import pytest

from realcharvar.cli import main

# (arguments before "--format json", exit code, sha256 of stdout)
GOLDEN = (
    ("epoly --n 1-4 --g 1 --r 2 --convention matched", 0,
     "5fd810d2863d54a70b95dcb286235b5a4e4b39d56c49a5b4e2ed68fbe4115e64"),
    ("epoly --n 1-5 --g 3 --r 2 --convention matched", 0,
     "95217e46398f546a9c8f8ef1b760ff78c51fc6dcb308c3f0488bcfd8fbb87f53"),
    ("component --n 1-4 --g 1 --r 2 --k 1 --convention matched", 0,
     "59d345482aa2d2d8c6cb9689530676bfaf3fff51f56511ee97a29b166765fc5c"),
    ("component --n 1-4 --g 3 --r 3 --k 1 --convention matched", 0,
     "8405ce6b565b252f61c6bdb8ac309b46c5a5f1e632fd2054843fb39cbe1b7be4"),
    ("component --n 1-4 --g 3 --r 3 --k 3 --convention matched", 0,
     "f3b23a2fd3a92e2e11614692bcb20a274bfb5179f7d809a7e2fcf03b2aee52f9"),
    ("euler --n 1-4 --g 1 --r 1 --k 1 --convention matched", 0,
     "a975c3823804ce00f25dba087bcb4c5ecbd2dcd10f006dbf23a5914685542a4a"),
    ("euler --n 1-5 --g 3 --r 2 --k 1 --convention matched", 0,
     "75de61861983564fa54ee3c76a9bf657b762ee379bd39d506582b7e3ec7b5f3c"),
    ("genfun --N 4 --g 0 --r 1 --convention matched", 0,
     "5bc51ea770697c81d8ac478aa837896f56142c694729056322e377fae0ec4fcc"),
    ("genfun --N 4 --g 1 --r 2 --convention matched", 0,
     "8f75da87c7eff3ab80950e8d5e847a2c4fea4d51f493be72d1f9b1e7eab556f8"),
    ("genfun --N 3 --g 3 --r 2 --convention matched", 0,
     "5303ee3c9ca107f5eea242c051533740be48eb9be6be1d546e4229ee38560892"),
    ("epoly --n 1-4 --g 1 --r 2 --convention transposed", 0,
     "ac697c346ebf67afbde6d0532cc9e476a6b1a3fee0db95a5f7dd8cf24c33c9b1"),
    ("epoly --n 1-5 --g 3 --r 2 --convention transposed", 0,
     "ec057fe116b238ce796b32adc9fe192aef5a9c53dd181d34d6574bc04178485a"),
    ("component --n 1-4 --g 1 --r 2 --k 1 --convention transposed", 0,
     "2359f8fd8e9d413edad179591938488e877c8856d4a912d85d414f6be82f5be8"),
    ("component --n 1-4 --g 3 --r 3 --k 1 --convention transposed", 0,
     "0758f504a792aebd3f71241511a1a1f886c575bc469ea46865e7e13c4adc568b"),
    ("component --n 1-4 --g 3 --r 3 --k 3 --convention transposed", 0,
     "d762ec586e375e7a7c13d1115bf50cd903d884146d2fa898b439d511784fee47"),
    ("euler --n 1-4 --g 1 --r 1 --k 1 --convention transposed", 0,
     "a975c3823804ce00f25dba087bcb4c5ecbd2dcd10f006dbf23a5914685542a4a"),
    ("euler --n 1-5 --g 3 --r 2 --k 1 --convention transposed", 0,
     "75de61861983564fa54ee3c76a9bf657b762ee379bd39d506582b7e3ec7b5f3c"),
    ("genfun --N 4 --g 0 --r 1 --convention transposed", 0,
     "b12811f5d28b6fe4717e090d5b1f512543ea1798edace728a97ec1b9ab2a0b7b"),
    ("genfun --N 4 --g 1 --r 2 --convention transposed", 0,
     "fed066a800fc24ffebe2fbd9dd85272f6dc6b700e0a86c3c6f3581f79056e75f"),
    ("genfun --N 3 --g 3 --r 2 --convention transposed", 0,
     "b9868d3b1f5d9ecfe5d1fc5beba75053138797dad0eabdfb93e14012b11ce787"),
    ("epoly --n 1-4 --g 0 --r 1 --convention matched", 0,
     "21c032a7797dff07a611b3a917157a30161a4d004dee6392219dc648779eb2b4"),
    ("component --n 1-4 --g 0 --r 1 --k 1 --convention matched", 0,
     "71f8d420149df087812245d7894eff904d2b4c422e2fd9cd4691ba2854fcf416"),
    ("euler --n 1-4 --g 0 --r 1 --k 1 --convention matched", 0,
     "6fb41f5c1eafbd4dcccdc2f953134e7fd065e1ef82f744d07c3fed36adc31a01"),
    ("epoly --n 1-4 --g 0 --r 1 --convention transposed", 0,
     "59c852bace1e6a4e6d7f4202ea82a41c56968e2383eee741a8ceb7e3b9ed5787"),
    ("component --n 1-4 --g 0 --r 1 --k 1 --convention transposed", 0,
     "2ce2cac54823b1d0632f62d3b7f85e1f0e5eb9293acaedac9150be38c88eda1d"),
    ("euler --n 1-4 --g 0 --r 1 --k 1 --convention transposed", 0,
     "6fb41f5c1eafbd4dcccdc2f953134e7fd065e1ef82f744d07c3fed36adc31a01"),
)


# (full arguments, sha256 of stdout); every one exits 0
RENDERINGS = (
    ("epoly --n 1-5 --g 3 --r 2 --convention matched --format text",
     "b6936263f566a8cc9853f2db7ea108d76c2ff3955ef81d091b47a464cc8a181b"),
    ("epoly --n 1-5 --g 3 --r 2 --convention matched --format latex --xy",
     "4f1b8c3a918bcf4392490cc3899c91fdb9910cdd2ad3a7fed49b0d1c87d597b4"),
    ("epoly --n 1-5 --g 3 --r 2 --convention matched --format csv",
     "2875e54d6381d61cb0237facf6928130482ade46f8bf4ff41ecd72eb07da05bc"),
    ("epoly --n 1-6 --g 2 --r 3 --convention transposed --format text",
     "8c29b1db1d36db411baf32a9ef99eb7c325eac879d7818792ea52d4dc23245a5"),
    ("epoly --n 1-6 --g 2 --r 3 --convention transposed --format latex --xy",
     "54d710affbb6c5ae73c388f75ae9aceca9ac1318a1059ce9ea1cf13da3f445ee"),
    ("epoly --n 1-6 --g 2 --r 3 --convention transposed --format csv",
     "22ef935c29c1139fb25d8246fb2711958653aaf00dcb9e5aff7527cfa68295a5"),
    ("component --n 1-4 --g 3 --r 3 --k 3 --convention matched --format text",
     "636a6960ca93350de4e2da42d96bca23ee6e3b3f09a5a974d978285ad90d6d90"),
    ("component --n 1-4 --g 3 --r 3 --k 3 --convention matched --format latex --xy",
     "764ca48f66507ce41b5d450e20c44d9d70cfb3c7ca513c02d2dc85812c7fbe35"),
    ("component --n 1-4 --g 3 --r 3 --k 3 --convention matched --format csv",
     "c93260b718a445fe1e16cc31144cb414d946df84d716086efb5f0fc9dd07a36c"),
    ("component --n 1-5 --g 2 --r 1 --k 1 --convention transposed --format text",
     "20da69e07730e3b67cff0dcdf8c72cc1f8f1b2cdce6b39eb5f46d18f0d3f68de"),
    ("component --n 1-5 --g 2 --r 1 --k 1 --convention transposed --format latex --xy",
     "c37655c8b6b3f8460076931da36bd4273c3a530ad3db834a783d7c3c7d81a4e0"),
    ("component --n 1-5 --g 2 --r 1 --k 1 --convention transposed --format csv",
     "d78762af467dc11e94061795fe78314f6dc04e36ab93b1e332a6b3e052772fa7"),
)


def _run(argv):
    "Exit code and sha256 of stdout of one command-line call."
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("args,code,digest", GOLDEN)
def test_json_document_unchanged(args, code, digest):
    assert _run(args.split() + ["--format", "json"]) == (code, digest)


@pytest.mark.parametrize("args,digest", RENDERINGS)
def test_rendering_unchanged(args, digest):
    assert _run(args.split()) == (0, digest)
